package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"graphene/internal/trace"
)

// Client speaks one rhsimd session over TCP. One session per connection:
// Dial, Run, Close.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	// chunk is the streaming buffer: trace bytes are copied through it
	// into DATA frames, so a whole Run allocates the buffer once.
	chunk []byte
	// Timeout bounds each network operation (default 2m).
	Timeout time.Duration
	// OnPartial, when non-nil, receives every partial Report the server
	// streams mid-session (Hello.ReportEvery), including the resume
	// acknowledgment. It runs on the client's reader goroutine — keep it
	// cheap, and synchronize if it shares state with the caller.
	OnPartial func(Report)
}

// DialTimeout bounds connection establishment.
const dialTimeout = 10 * time.Second

// Dial connects to an rhsimd daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 256<<10),
		chunk:   make([]byte, 256<<10),
		Timeout: 2 * time.Minute,
	}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Run executes one session: handshake h, then the binary trace stream
// from src (as written by trace.WriteBinary), then the server's verdict.
// A server-reported failure comes back as the ERROR frame's message; if
// streaming breaks mid-way Run still waits for a buffered ERROR frame
// first, since the server severing a bad session is the usual cause of a
// client-side write error.
//
// With h.Resume set, src must be the FULL original trace stream: the
// server answers the hello with a resume acknowledgment naming how many
// segments its journal restored, and Run skips exactly that prefix of
// src before streaming the remainder. If the session had already
// finished, the server answers with its journaled final Report instead,
// and Run returns that Report without streaming anything. Partial
// Reports (h.ReportEvery) arrive through OnPartial either way.
func (c *Client) Run(h Hello, src io.Reader) (Report, error) {
	payload, err := json.Marshal(h)
	if err != nil {
		return Report{}, fmt.Errorf("serve: encoding hello: %w", err)
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	if err := writeFrame(c.bw, FrameHello, payload); err != nil {
		return Report{}, fmt.Errorf("serve: sending hello: %w", err)
	}

	fr := &frameReader{r: c.conn, extend: func() {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}}

	if h.Resume != nil {
		// The ack decides how much of src to skip, so it is read
		// synchronously before any data flows.
		if err := c.bw.Flush(); err != nil {
			return Report{}, fmt.Errorf("serve: flushing hello: %w", err)
		}
		ack, err := c.readAck(fr)
		if err != nil {
			return Report{}, err
		}
		if !ack.Partial {
			return ack, nil
		}
		br := bufio.NewReader(src)
		if err := trace.SkipBinaryPrefix(br, ack.Segments); err != nil {
			return Report{}, fmt.Errorf("serve: skipping resumed prefix: %w", err)
		}
		src = br
		if c.OnPartial != nil {
			c.OnPartial(ack)
		}
	}

	// The server streams partial R frames while we stream DATA; reading
	// them concurrently keeps both socket directions drained, so neither
	// side can stall on a full buffer.
	type verdict struct {
		rep Report
		err error
	}
	verdictC := make(chan verdict, 1)
	go func() {
		for {
			typ, payload, err := fr.next(nil, MaxFramePayload)
			if err != nil {
				verdictC <- verdict{err: fmt.Errorf("serve: reading verdict: %w", noEOF(err))}
				return
			}
			switch typ {
			case FrameResult:
				var rep Report
				if err := json.Unmarshal(payload, &rep); err != nil {
					verdictC <- verdict{err: fmt.Errorf("serve: decoding report: %w", err)}
					return
				}
				if rep.Partial {
					if c.OnPartial != nil {
						c.OnPartial(rep)
					}
					continue
				}
				verdictC <- verdict{rep: rep}
				return
			case FrameError:
				verdictC <- verdict{err: &ServerError{Msg: string(payload)}}
				return
			default:
				verdictC <- verdict{err: fmt.Errorf("serve: unexpected %c frame as verdict", typ)}
				return
			}
		}
	}()

	streamErr := c.stream(src)
	v := <-verdictC
	if v.err == nil {
		return v.rep, nil
	}
	// Prefer the server's explanation when one arrived; fall back to the
	// local write error, which is the root cause when the server said
	// nothing.
	if srvErr := (*ServerError)(nil); errors.As(v.err, &srvErr) {
		return Report{}, v.err
	}
	if streamErr != nil {
		return Report{}, streamErr
	}
	return Report{}, v.err
}

// readAck reads the answer to a resume hello: one partial RESULT frame
// with Resumed set, a finished session's final RESULT, or the server's
// ERROR.
func (c *Client) readAck(fr *frameReader) (Report, error) {
	typ, payload, err := fr.next(nil, MaxFramePayload)
	if err != nil {
		return Report{}, fmt.Errorf("serve: reading resume ack: %w", noEOF(err))
	}
	switch typ {
	case FrameResult:
		var rep Report
		if err := json.Unmarshal(payload, &rep); err != nil {
			return Report{}, fmt.Errorf("serve: decoding resume ack: %w", err)
		}
		if rep.Partial && !rep.Resumed {
			return Report{}, fmt.Errorf("serve: resume ack missing resumed flag")
		}
		return rep, nil
	case FrameError:
		return Report{}, &ServerError{Msg: string(payload)}
	default:
		return Report{}, fmt.Errorf("serve: unexpected %c frame as resume ack", typ)
	}
}

// stream sends the DATA frames and FIN (the hello is already buffered or
// flushed by Run).
func (c *Client) stream(src io.Reader) error {
	for {
		n, err := src.Read(c.chunk)
		if n > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
			if werr := writeFrame(c.bw, FrameData, c.chunk[:n]); werr != nil {
				return fmt.Errorf("serve: streaming trace: %w", werr)
			}
			// Flush per frame: a slow source must not strand buffered
			// bytes client-side, or the server can never finish the
			// segments behind them — partial reports (and the resume
			// journal) would stall with it. One flush per chunk-sized
			// frame costs a syscall per 256KiB.
			if werr := c.bw.Flush(); werr != nil {
				return fmt.Errorf("serve: streaming trace: %w", werr)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("serve: reading trace source: %w", err)
		}
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	if err := writeFrame(c.bw, FrameFin, nil); err != nil {
		return fmt.Errorf("serve: sending fin: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("serve: flushing stream: %w", err)
	}
	return nil
}

// ServerError is a failure the daemon reported in an ERROR frame — the
// session reached the server and was rejected there, as opposed to a
// transport failure.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return "serve: server: " + e.Msg }
