# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test test-race test-short bench bench-sweep bench-obs bench-fault bench-trace bench-replay bench-rowpress bench-serve perfbench-build fuzz race tables security examples loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# One smoke pass over the sweep scheduler and the streaming replay path:
# a single iteration each of the jobs-1 vs jobs-max grid and the
# streaming-vs-buffered full-scale replay (with allocation counts).
bench-sweep:
	$(GO) test -run xxx -bench 'BenchmarkSweepScheduler' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkReplayFullScaleAdversarial' -benchtime 1x -benchmem ./internal/memctrl

# Observability smoke pass: a short replay on the full-scale Table III
# geometry with -metrics/-events-style file output enabled, asserting the
# event stream is non-empty valid JSON lines whose totals match the run's
# summary counters (DESIGN.md §7 contract).
bench-obs:
	$(GO) test -run 'TestObsSmoke' -v .

# Fault-injection suite (DESIGN.md §8): every wired fault site — sched
# workers, the memctrl partitioner and replay goroutines, trace reads,
# journal appends and compactions — plus the checkpoint/resume acceptance
# tests that kill a sweep with an injected fault and require
# byte-identical resumed output, and the serve journal's crash-cut,
# corrupt-record and bounded-size tests.
bench-fault:
	$(GO) test -run 'FaultInject|Checkpoint|Journal|ResumeRecordFault|ResumeCorrupt' -v ./internal/faultinject ./internal/sched ./internal/memctrl ./internal/trace ./internal/sim ./internal/serve ./cmd/rhsweep

# Trace codec gate: parse+replay-ingest cost per ACT for the text vs
# binary formats, recorded to machine-readable BENCH_trace.json, with
# rhbench enforcing the ≥10x parse-throughput target on decode-blocks
# (the BlockReader path bank-parallel replay ingests) vs the text parser.
bench-trace:
	$(GO) test -run xxx -bench 'BenchmarkTraceCodec' -benchtime 5x -count 3 ./internal/trace | $(GO) run ./cmd/rhbench -o BENCH_trace.json -assert-speedup 'decode-blocks:parse-text:10'

# Batched replay gate (DESIGN.md §9, §11): the zero-alloc tests pin both
# replay paths at exactly 0 allocations in steady state — the batch core
# (DDR4 and DDR5/RFM legs) and the scalar replayOne that REF-boundary
# ACTs and CRA take (testing.AllocsPerRun, which caught the 7 allocs per
# trigger cycle the pre-append API hid under benchmem's integer
# rounding). Then the engine pair benchmarks (identical ACT runs through
# the scalar replayOne loop vs the batched replayRun), the per-ACT
# replayOne hot-path benchmarks, and the all-banks aggregate pair
# (buffered per-ACT replay vs columnar RunBlocks ingest) record their
# numbers into BENCH_replay.json. rhbench asserts ≥3x batch-vs-scalar on
# trigger-light replay, ≥1.3x end-to-end aggregate, and 0 allocs/op on
# every batch engine and hot-path bench.
bench-replay:
	$(GO) test -run 'TestReplayBatchZeroAlloc|TestReplayHotPathZeroAlloc' ./internal/memctrl
	$(GO) test -run xxx -bench 'BenchmarkReplayEngine' -benchtime 500x -count 3 -benchmem ./internal/memctrl > BENCH_replay.txt
	$(GO) test -run xxx -bench 'BenchmarkHotPath' -benchtime 1000x -benchmem ./internal/memctrl >> BENCH_replay.txt
	$(GO) test -run xxx -bench 'BenchmarkReplayAggregate' -benchtime 3x -count 3 -benchmem ./internal/memctrl >> BENCH_replay.txt
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o BENCH_replay.json -assert-speedup 'ReplayEngine/batch-trigger-light:ReplayEngine/scalar-trigger-light:3'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-speedup 'batch-allbanks:scalar-allbanks:1.3'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-zero-allocs 'BenchmarkReplayEngine/batch'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-zero-allocs 'BenchmarkHotPath'
	rm -f BENCH_replay.txt

# RowPress dwell-column gate (DESIGN.md §13): the dwell-carrying zero-alloc
# legs pin the columnar dwell path at exactly 0 allocations, then the
# BenchmarkReplayRowpress pair replays identical semantic work (an all-nRAS
# dwell column means every increment is 1 and every ActCycle equals tRC)
# with and without the column, so the ratio prices carrying and weighing
# the column alone. rhbench asserts dwell ≥ 0.8x plain and 0 allocs/op.
bench-rowpress:
	$(GO) test -run 'TestReplayBatchZeroAlloc/.*dwell' ./internal/memctrl
	$(GO) test -run xxx -bench 'BenchmarkReplayRowpress' -benchtime 500x -count 3 -benchmem ./internal/memctrl > BENCH_rowpress.txt
	$(GO) run ./cmd/rhbench -i BENCH_rowpress.txt -o BENCH_rowpress.json -assert-speedup 'ReplayRowpress/dwell:ReplayRowpress/plain:0.8'
	$(GO) run ./cmd/rhbench -i BENCH_rowpress.txt -o /dev/null -assert-zero-allocs 'BenchmarkReplayRowpress'
	rm -f BENCH_rowpress.txt

# Serving-path gate (DESIGN.md §12): one benchmark pair replays the same
# 8-tenant x 8-bank x 1M-ACT aggregate directly through memctrl.RunBlocks
# and through a live rhsimd-style TCP daemon (frame encode, wire decode,
# per-tenant replay, report round trip). rhbench asserts the ISSUE 8
# floors on the serve side: within 2x of the direct path, ≥10M ACT/s
# aggregate, and bounded memory (≤16 bytes/ACT across client+server, so
# any per-ACT allocation on the hot path fails the gate).
#
# The multi-shard leg pins the scale-out claim: 8 single-bank tenants on
# 4 worker shards vs 1. On a ≥4-core runner shards-4 must be ≥2x faster;
# a smaller runner cannot scale, so the gate degrades to parity (≥0.85x,
# i.e. shard scheduling itself must not cost throughput) — the same
# adaptive discipline the sweep gate uses for jobs-1 vs jobs-max.
bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServePath' -benchtime 1x -count 3 ./internal/serve > BENCH_serve.txt
	$(GO) test -run xxx -bench 'BenchmarkServeShards' -benchtime 1x -count 3 ./internal/serve >> BENCH_serve.txt
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o BENCH_serve.json -assert-speedup 'serve-aggregate:direct-aggregate:0.5'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-min 'serve-aggregate:acts/s:10000000'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-max 'serve-aggregate:b/act:16'
	@if [ "$$(nproc)" -ge 4 ]; then \
		$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-speedup 'ServeShards/shards=4:ServeShards/shards=1:2'; \
	else \
		echo "bench-serve: $$(nproc)-core runner: asserting shard parity instead of 2x scale-out"; \
		$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-speedup 'ServeShards/shards=4:ServeShards/shards=1:0.85'; \
	fi
	rm -f BENCH_serve.txt

# The repository benchmark (perfbench/, a module of its own that imports
# this one) compiles against the public API of sched, serve, memctrl and
# trace. Vetting and testing it here makes an API change fail make check
# instead of the next benchmark run.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race detector over the packages that run per-bank goroutines and the
# sweep worker pool, the oracle whose arrays recycle across runs through
# a shared pool, plus the mitigation stack fuzz seeds (FuzzStackAppend
# runs its corpus as regular tests here). -short skips the tens-of-seconds
# full-scale run, which would dominate `make check` under the race
# detector's overhead.
race:
	$(GO) test -race -short ./internal/faultinject/... ./internal/hammer/... ./internal/memctrl/... ./internal/sim/... ./internal/sched/... ./internal/mitigation/... ./internal/trace/... ./internal/serve/... ./internal/obs/... ./cmd/rhsimd/... ./cmd/rhload/...

# Short exploratory fuzz passes over the core invariants.
fuzz:
	$(GO) test ./internal/graphene -fuzz=FuzzTableInvariants -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzBankNeverMissesTheorem -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzTableMatchesReference -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzBatchAppend -fuzztime=30s -run xxx
	$(GO) test ./internal/trace -fuzz=FuzzBinaryReader -fuzztime=30s -run xxx
	$(GO) test ./internal/memctrl -fuzz=FuzzStreamingMatchesBuffered -fuzztime=30s -run xxx
	$(GO) test ./internal/memctrl -fuzz=FuzzBatchSplit -fuzztime=30s -run xxx
	$(GO) test ./internal/hammer -fuzz=FuzzOracleRunMatchesReference -fuzztime=30s -run xxx
	$(GO) test ./internal/mitigation -fuzz=FuzzStackAppend -fuzztime=30s -run xxx
	$(GO) test ./internal/serve -fuzz=FuzzWireSession -fuzztime=30s -run xxx

# Non-test Go lines under internal/ and cmd/: the size measure ROADMAP.md
# tracks across refactors. Informational, not part of check.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

tables:
	$(GO) run ./cmd/rhtables -all

security:
	$(GO) run ./cmd/rhsecurity

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attack
	$(GO) run ./examples/scaling
	$(GO) run ./examples/nonadjacent
	$(GO) run ./examples/pagepolicy
	$(GO) run ./examples/observability

check: build vet test race bench-sweep bench-fault bench-trace bench-replay bench-rowpress bench-serve perfbench-build
