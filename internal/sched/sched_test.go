package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs builds n jobs writing i*i into out[i].
func squareJobs(out []int) []Job {
	jobs := make([]Job, len(out))
	for i := range out {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(context.Context) error {
			out[i] = i * i
			return nil
		}}
	}
	return jobs
}

func TestRunAssemblesInSubmissionOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		out := make([]int, 100)
		if err := Run(Options{Jobs: jobs}, squareJobs(out)); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if err := Run(Options{}, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]int, 1)
	if err := Run(Options{Jobs: 16}, squareJobs(out)); err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorAbortsQueuedJobs(t *testing.T) {
	const n = 64
	var ran atomic.Int64
	boom := errors.New("boom")
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(context.Context) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		}}
	}
	err := Run(Options{Jobs: 2}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The pool stops pulling after the failure: with 2 workers at most a
	// handful of jobs past the failing one can already be in flight.
	if got := ran.Load(); got > 8 {
		t.Errorf("%d jobs ran after early failure; pool did not abort", got)
	}
}

func TestErrorCancelsContextForInFlightJobs(t *testing.T) {
	// One job blocks on the context; another fails. The blocked job must be
	// released — a deadlock here hangs the test (and the sweep it models).
	release := make(chan struct{})
	jobs := []Job{
		{Label: "waiter", Do: func(ctx context.Context) error {
			close(release)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return errors.New("never cancelled")
			}
		}},
		{Label: "failer", Do: func(context.Context) error {
			<-release // ensure the waiter is already in flight
			return errors.New("boom")
		}},
	}
	err := Run(Options{Jobs: 2}, jobs)
	if err == nil || err.Error() != "boom" && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want boom or context.Canceled", err)
	}
}

// TestFailureBeatsSiblingCancellation pins the root-cause rule: job 1's
// failure cancels the pool, and job 0, lower in index, returns the
// resulting ctx.Err() only afterwards. That echo must not displace the
// error that caused it.
func TestFailureBeatsSiblingCancellation(t *testing.T) {
	errX := errors.New("injected")
	jobs := []Job{
		{Label: "waiter", Do: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}},
		{Label: "failer", Do: func(context.Context) error { return errX }},
	}
	if err := Run(Options{Jobs: 2}, jobs); !errors.Is(err, errX) {
		t.Fatalf("err = %v, want the failing job's %v", err, errX)
	}
}

func TestJobsOneIsSerialSubmissionOrder(t *testing.T) {
	var order []int
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = Job{Do: func(context.Context) error {
			order = append(order, i) // safe: single worker
			return nil
		}}
	}
	if err := Run(Options{Jobs: 1}, jobs); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not submission order", order)
		}
	}
}

func TestProgressCallbacksAreOrderedAndComplete(t *testing.T) {
	const n = 50
	var got []Progress
	out := make([]int, n)
	err := Run(Options{Jobs: 8, Progress: func(p Progress) { got = append(got, p) }}, squareJobs(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n+1 {
		t.Fatalf("%d progress callbacks, want %d per-cell + 1 final", len(got), n)
	}
	for i, p := range got[:n] {
		if p.Done != i+1 || p.Total != n || p.Final {
			t.Fatalf("callback %d: Done/Total/Final = %d/%d/%v", i, p.Done, p.Total, p.Final)
		}
		if !strings.HasPrefix(p.Cell, "cell-") {
			t.Fatalf("callback %d: Cell = %q", i, p.Cell)
		}
	}
	fin := got[n]
	if !fin.Final || fin.Done != n || fin.Failed != 0 || fin.Err != nil {
		t.Fatalf("final callback = %+v", fin)
	}
}

func TestReporterEndsLineOnCompletion(t *testing.T) {
	var sb strings.Builder
	rep := Reporter(&sb)
	rep(Progress{Done: 1, Total: 2, Cell: "a"})
	if strings.Contains(sb.String(), "\n") {
		t.Error("newline before the final notification")
	}
	rep(Progress{Done: 2, Total: 2, Cell: "b"})
	rep(Progress{Done: 2, Total: 2, Final: true})
	if !strings.HasSuffix(sb.String(), "\n") {
		t.Error("missing final newline")
	}
	if !strings.Contains(sb.String(), "2/2 cells") {
		t.Errorf("unexpected reporter output %q", sb.String())
	}
}

// TestReporterTerminatesLineOnAbort pins the stderr stream of a failing
// sweep: the stale "\r"-redrawn progress line must be terminated by a
// newline before the CLI prints its error, and a run that never rendered a
// line must not emit a stray blank one.
func TestReporterTerminatesLineOnAbort(t *testing.T) {
	var sb strings.Builder
	boom := errors.New("boom")
	jobs := []Job{
		{Label: "ok", Do: func(context.Context) error { return nil }},
		{Label: "bad", Do: func(context.Context) error { return boom }},
		{Label: "skipped", Do: func(context.Context) error { return nil }},
	}
	err := Run(Options{Jobs: 1, Progress: Reporter(&sb)}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("aborted sweep left the progress line unterminated: %q", out)
	}
	if !strings.Contains(out, "1/3 cells") {
		t.Fatalf("unexpected aborted-sweep stderr %q", out)
	}

	// A sweep failing before any success renders no line, so the reporter
	// must emit nothing at all.
	var empty strings.Builder
	err = Run(Options{Jobs: 1, Progress: Reporter(&empty)}, []Job{
		{Label: "bad", Do: func(context.Context) error { return boom }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if empty.String() != "" {
		t.Fatalf("no-progress abort wrote %q, want nothing", empty.String())
	}
}

// TestPanicRecoveredAsLabeledError pins the tentpole contract: a panicking
// cell fails its sweep with an error naming the cell instead of crashing
// the process, and other cells drain normally.
func TestPanicRecoveredAsLabeledError(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(context.Context) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		}}
	}
	err := Run(Options{Jobs: 4}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Label != "cell-3" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Label:%q Value:%v stack:%d bytes}", pe.Label, pe.Value, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), `panic in cell "cell-3"`) {
		t.Fatalf("error text %q does not name the cell", err)
	}
}

func TestRetryPolicyRetriesRetryableFailures(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job{{Label: "flaky", Do: func(context.Context) error {
		if attempts.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	}}}
	err := Run(Options{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 3}}, jobs)
	if err != nil {
		t.Fatalf("retried job still failed: %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("job ran %d times, want 3", attempts.Load())
	}

	// Exhausted attempts surface the last error.
	attempts.Store(0)
	err = Run(Options{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 2}}, jobs)
	if err == nil || attempts.Load() != 2 {
		t.Fatalf("err = %v after %d attempts, want failure after 2", err, attempts.Load())
	}
}

func TestRetryPolicySkipsPanicsAndCancellation(t *testing.T) {
	var attempts atomic.Int64
	err := Run(Options{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 5}}, []Job{
		{Label: "panicky", Do: func(context.Context) error { attempts.Add(1); panic("nope") }},
	})
	var pe *PanicError
	if !errors.As(err, &pe) || attempts.Load() != 1 {
		t.Fatalf("panicking job: err = %v after %d attempts, want 1 panic attempt", err, attempts.Load())
	}

	attempts.Store(0)
	err = Run(Options{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 5}}, []Job{
		{Label: "cancelled", Do: func(context.Context) error {
			attempts.Add(1)
			return fmt.Errorf("wrapped: %w", context.Canceled)
		}},
	})
	if !errors.Is(err, context.Canceled) || attempts.Load() != 1 {
		t.Fatalf("cancelled job: err = %v after %d attempts, want no retries", err, attempts.Load())
	}

	// A custom classifier restricts retries further.
	attempts.Store(0)
	err = Run(Options{Jobs: 1, Retry: RetryPolicy{
		MaxAttempts: 5,
		Retryable:   func(error) bool { return false },
	}}, []Job{
		{Label: "fatal", Do: func(context.Context) error { attempts.Add(1); return errors.New("fatal") }},
	})
	if err == nil || attempts.Load() != 1 {
		t.Fatalf("non-retryable: err = %v after %d attempts", err, attempts.Load())
	}
}

func TestRetryBackoffIsCappedExponential(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.delay(i + 1); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).delay(3); got != 0 {
		t.Errorf("zero policy delay = %v, want 0", got)
	}
	// Unset cap defaults to 1s.
	if got := (RetryPolicy{BaseDelay: 300 * time.Millisecond}).delay(5); got != time.Second {
		t.Errorf("defaulted cap delay = %v, want 1s", got)
	}
}

func TestParentContextAbortsPool(t *testing.T) {
	// Jobs 0 and 1 occupy both workers and hold them until the parent
	// cancels, so cancellation is observably ahead of the rest of the
	// queue — no racing a fast worker through trivial jobs.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 2)
	var ran atomic.Int64
	jobs := make([]Job, 16)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(jctx context.Context) error {
			ran.Add(1)
			if i < 2 {
				started <- struct{}{}
				<-jctx.Done() // drain only when the pool aborts
			}
			return nil
		}}
	}
	go func() {
		<-started
		<-started
		cancel()
	}()
	err := Run(Options{Jobs: 2, Ctx: ctx}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("cancelled pool ran %d jobs, want just the 2 in flight", got)
	}
}

func TestParentDeadlineAbortsPool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(jctx context.Context) error {
			select {
			case <-jctx.Done():
				return nil // drain cleanly
			case <-time.After(10 * time.Second):
				return errors.New("never aborted")
			}
		}}
	}
	err := Run(Options{Jobs: 2, Ctx: ctx}, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCompletedRunIgnoresLateParentCancel: if every job finished, a parent
// cancellation that raced the drain must not turn a complete sweep into a
// failed one.
func TestCompletedRunIgnoresLateParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := make([]int, 4)
	jobs := squareJobs(out)
	// Cancel after all jobs are done but (possibly) before Run returns.
	jobs = append(jobs, Job{Label: "last", Do: func(context.Context) error {
		return nil
	}})
	err := Run(Options{Jobs: 1, Ctx: ctx, Progress: func(p Progress) {
		if p.Done == len(jobs) {
			cancel()
		}
	}}, jobs)
	defer cancel()
	if err != nil {
		t.Fatalf("complete run reported %v", err)
	}
}

// TestAbortDrainsInFlightUnderLoad is the -race abort-path test: one cell
// fails while many others are mid-flight; the pool must drain without
// deadlock and report the lowest-index error.
func TestAbortDrainsInFlightUnderLoad(t *testing.T) {
	const n = 64
	errA := errors.New("err-a")
	errB := errors.New("err-b")
	var inflight atomic.Int64
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("cell-%d", i), Do: func(ctx context.Context) error {
			inflight.Add(1)
			defer inflight.Add(-1)
			time.Sleep(time.Millisecond)
			switch i {
			case 11:
				return errB // higher index, may finish first
			case 5:
				time.Sleep(5 * time.Millisecond)
				return errA
			}
			return nil
		}}
	}
	err := Run(Options{Jobs: 8}, jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-index error err-a", err)
	}
	if got := inflight.Load(); got != 0 {
		t.Fatalf("%d jobs still in flight after Run returned", got)
	}
}

func TestMemoDoesNotCacheCancellation(t *testing.T) {
	var m Memo[string, int]
	var computes int
	// First ask is aborted by sweep cancellation.
	_, err := m.Do("base", func() (int, error) {
		computes++
		return 0, fmt.Errorf("sim: baseline: %w", context.Canceled)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first ask err = %v", err)
	}
	// The resumed sweep must recompute instead of re-failing from the memo.
	v, err := m.Do("base", func() (int, error) {
		computes++
		return 42, nil
	})
	if v != 42 || err != nil {
		t.Fatalf("resumed ask = %d, %v; cancellation was cached", v, err)
	}
	if computes != 2 {
		t.Fatalf("computed %d times, want 2", computes)
	}

	// DeadlineExceeded behaves the same.
	_, err = m.Do("slow", func() (int, error) { return 0, context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ask err = %v", err)
	}
	if v, err := m.Do("slow", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("post-deadline ask = %d, %v", v, err)
	}
}

func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var computes atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("base", func() (int, error) {
				computes.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[int, int]
	boom := errors.New("boom")
	var computes int
	for i := 0; i < 3; i++ {
		_, err := m.Do(7, func() (int, error) { computes++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if computes != 1 {
		t.Errorf("failed compute retried %d times", computes)
	}
	if v, err := m.Do(8, func() (int, error) { return 8, nil }); v != 8 || err != nil {
		t.Errorf("independent key poisoned: %d, %v", v, err)
	}
}
