package serve

import (
	"fmt"
	"strconv"
	"strings"

	"graphene/internal/trace"
)

// Session resume (DESIGN.md §12). A session with ReportEvery > 0 on a
// daemon running a checkpoint journal is resumable: as the replay router
// completes segments, the raw wire bytes are journaled in chunks of
// ReportEvery segments, each chunk recorded immediately before the
// partial Report covering it goes out — so any partial the client has
// seen names a prefix the journal durably holds. The trace codec's delta
// state persists across segment boundaries (DESIGN.md §10), so a resumed
// replay cannot simply skip ahead in its own decode: instead the server
// re-replays the journaled raw prefix (canonical header + verbatim
// segment bytes) spliced in front of the live stream, which makes the
// total decoded byte stream — and therefore the Result — byte-identical
// to an uninterrupted replay. The client, told how many segments the
// journal restored, skips exactly that prefix of its source
// (trace.SkipBinaryPrefix) and streams the remainder.
//
// Once the session's final Report is journaled, its resume records are
// tombstoned (the journal compacts their bytes away) and the Report
// itself answers any later resume of the session: the client gets it
// back without streaming. A resume never silently starts fresh — an
// unknown handle or a record that fails its checksum is an E frame.

// resumeMeta is the per-session journal record written once, when the
// trace header first decodes: everything needed to rebuild the session
// (its resolved Hello) and the stream prefix (the header fields feeding
// trace.AppendBinaryHeader). The journaled Hello is authoritative on
// resume; the reconnecting client's parameters are not trusted to match.
type resumeMeta struct {
	Hello Hello  `json:"hello"`
	Name  string `json:"name"`
	Banks int    `json:"banks"`
	Total int64  `json:"total"`

	// Version is the stream's binary codec version (1 = RHTB1, 2 = RHTB2
	// with dwell columns). Absent in journals written before dwell
	// support — the JSON zero maps to version 1, the only format those
	// journals could hold — so old journals restore unchanged.
	Version int `json:"version,omitempty"`
}

// resumeChunk is one journaled run of ReportEvery segments: the verbatim
// wire bytes (length-prefixed segment payloads) ready to splice back into
// a stream.
type resumeChunk struct {
	Segments int    `json:"segments"`
	Data     []byte `json:"data"`
}

func resumeMetaKey(tenant string, session int64) string {
	return fmt.Sprintf("resume/%s/%d/meta", tenant, session)
}

func resumeChunkKey(tenant string, session int64, i int) string {
	return fmt.Sprintf("resume/%s/%d/chunk/%d", tenant, session, i)
}

// reportKey names a finished session's final Report in the journal.
func reportKey(tenant string, session int64) string {
	return fmt.Sprintf("%s/%d", tenant, session)
}

// resumeKeys lists every resume record of a session that journaled
// chunks 0..chunks-1: the records its tombstones delete once the final
// Report is journaled.
func resumeKeys(tenant string, session int64, chunks int) []string {
	keys := []string{resumeMetaKey(tenant, session)}
	for i := 0; i < chunks; i++ {
		keys = append(keys, resumeChunkKey(tenant, session, i))
	}
	return keys
}

// lastJournaledSession returns the highest session handle any journal key
// names (0 for none). A daemon numbers its sessions past it, so a
// restarted daemon never hands out a handle whose records an earlier
// process left behind.
func lastJournaledSession(keys []string) int64 {
	var last int64
	for _, k := range keys {
		if rest, ok := strings.CutPrefix(k, "resume/"); ok {
			if i := strings.LastIndex(rest, "/chunk/"); i >= 0 {
				k = rest[:i]
			} else {
				k = strings.TrimSuffix(rest, "/meta")
			}
		}
		if id, err := strconv.ParseInt(k[strings.LastIndexByte(k, '/')+1:], 10, 64); err == nil && id > last {
			last = id
		}
	}
	return last
}

// restoreState is what a resume restores: either a finished session's
// journaled final Report, or an unfinished session's prefix — the rebuilt
// wire bytes (header plus journaled segments), how many segments they
// carry, and how many chunk records held them.
type restoreState struct {
	final    *Report
	data     []byte
	segments int
	chunks   int
}

// prepareResume resolves a resume hello against the journal. A finished
// session restores its final Report; an unfinished one restores its
// journaled Hello as the session's parameters and its journaled chunks as
// the replay prefix. The handle must name a session this daemon's journal
// knows for this tenant — resume across tenants finds nothing, by key
// construction. A journal record that fails its checksum refuses the
// resume loudly rather than restore a prefix that is not the client's.
func (s *Server) prepareResume(h Hello) (Hello, *restoreState, error) {
	ck := s.cfg.Checkpoint
	if ck == nil {
		return h, nil, fmt.Errorf("resume: daemon runs without a checkpoint journal")
	}
	tenant, id := h.Tenant, h.Resume.Session
	notResumable := func(err error) (Hello, *restoreState, error) {
		return h, nil, fmt.Errorf("resume: session %d for tenant %q: not resumable: %w", id, tenant, err)
	}
	var final Report
	if ok, err := ck.Get(reportKey(tenant, id), &final); err != nil {
		return notResumable(err)
	} else if ok {
		return h, &restoreState{final: &final}, nil
	}
	var meta resumeMeta
	if ok, err := ck.Get(resumeMetaKey(tenant, id), &meta); err != nil {
		return notResumable(err)
	} else if !ok {
		return h, nil, fmt.Errorf("resume: unknown session %d for tenant %q", id, tenant)
	}
	jh := meta.Hello.withDefaults()
	if err := jh.validate(); err != nil {
		return h, nil, fmt.Errorf("resume: journaled hello: %w", err)
	}
	jh.Resume = h.Resume
	version := meta.Version
	if version == 0 {
		version = 1
	}
	st := &restoreState{data: trace.AppendBinaryHeaderVersion(nil, meta.Name, meta.Banks, meta.Total, version)}
	for {
		var c resumeChunk
		ok, err := ck.Get(resumeChunkKey(tenant, id, st.chunks), &c)
		if err != nil {
			return notResumable(err)
		}
		if !ok {
			break
		}
		st.data = append(st.data, c.Data...)
		st.segments += c.Segments
		st.chunks++
	}
	return jh, st, nil
}
