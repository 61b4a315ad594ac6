// Package sched is the sweep execution engine: it runs independent
// simulation cells (workload × scheme × threshold jobs) on a bounded worker
// pool and reassembles their results deterministically.
//
// The contract that makes parallel sweeps safe is in the caller's hands:
// each Job writes only into slots it owns (pre-allocated result cells), so
// output order is fixed at submission time and execution order never shows
// through. The pool adds robustness on top: the first failing job cancels
// the shared context and the remaining queued jobs are skipped, exactly
// like a serial loop returning early; a panicking job is recovered into a
// labeled error instead of crashing the process; an optional retry policy
// re-runs retryable failures with capped exponential backoff; and an
// optional parent context aborts the whole pool on cancellation or
// deadline. A progress callback supports live CLI reporting and is always
// terminated with one final notification, on completion and abort alike.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"graphene/internal/faultinject"
	"graphene/internal/obs"
)

// Progress is one completion notification: Done of Total cells have
// finished successfully (Failed more have failed), Cell names the one that
// just completed, and Elapsed is the wall clock since Run started.
// Callbacks arrive serialized and Done is strictly increasing, so a
// reporter can render a live status line without its own locking. After
// the pool drains — whether the sweep completed or aborted — exactly one
// final callback arrives with Final set and Err carrying the run's
// outcome, so a reporter can always terminate its output.
type Progress struct {
	Done    int
	Failed  int
	Total   int
	Cell    string
	Elapsed time.Duration

	// Final marks the single post-drain notification (Cell is empty).
	Final bool

	// Err is the pool's return value; only meaningful when Final is set.
	Err error
}

// RetryPolicy re-runs failed jobs. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts bounds the total executions of one job (1 or less means
	// a single attempt, i.e. no retries).
	MaxAttempts int

	// BaseDelay is the wait before the first retry; each further retry
	// doubles it, capped at MaxDelay (which defaults to 1s when unset and
	// BaseDelay is positive). Zero means immediate retries. The waits are
	// deterministic — no jitter — so retried sweeps stay reproducible.
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// Retryable classifies errors; nil retries everything except panics.
	// Context cancellation (context.Canceled / DeadlineExceeded) is never
	// retried regardless — an aborting pool must not respawn work.
	Retryable func(error) bool
}

// retryable reports whether the policy re-runs a job that failed with err.
func (p RetryPolicy) retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	var pe *PanicError
	return !errors.As(err, &pe)
}

// delay returns the backoff before retry number n (1-based).
func (p RetryPolicy) delay(n int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = time.Second
	}
	d := p.BaseDelay
	for i := 1; i < n; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

// Options configures a pool run.
type Options struct {
	// Jobs bounds the number of workers; 0 (or negative) uses
	// runtime.GOMAXPROCS(0). The worker count never affects results, only
	// wall clock.
	Jobs int

	// Ctx, when non-nil, is the parent context: cancelling it (or its
	// deadline passing) aborts the pool like a failing job — in-flight
	// cells drain, queued cells are skipped — and Run returns the
	// context's error if no job failed first. Nil means no external
	// cancellation.
	Ctx context.Context

	// Progress, when non-nil, is invoked after every successfully
	// completed job and once more with Final set after the pool drains.
	// It is called with the pool's bookkeeping lock held: keep it fast and
	// never call back into the pool from it.
	Progress func(Progress)

	// Retry re-runs failed jobs; the zero value runs each job once.
	Retry RetryPolicy

	// Fault, when non-nil, is hit at faultinject.SiteSchedJob once per job
	// attempt, before the job runs — the hook the fault-injection suite
	// uses to exercise the abort, retry, and drain paths.
	Fault *faultinject.Injector

	// Obs, when non-nil, receives one cell_start/cell_finish event pair
	// per executed job (skipped jobs emit nothing) with a cell_retry event
	// per re-attempt, the "cells_done_total" / "cell_errors_total" /
	// "cell_retries_total" counters, and the "cells_running" gauge. Unlike
	// Progress, events carry the failure detail, so an aborted sweep's
	// event stream names the cell that killed it.
	Obs *obs.Recorder
}

// Job is one independent unit of work. Do receives a context that is
// cancelled when another job fails; long-running jobs waiting on shared
// resources should select on ctx.Done() so an aborting pool cannot
// deadlock.
type Job struct {
	Label string
	Do    func(ctx context.Context) error
}

// PanicError is a recovered job panic, converted into an error that names
// the cell so one bad cell fails its sweep with context instead of
// crashing the whole process.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic in cell %q: %v", e.Label, e.Value)
}

// execJob runs one attempt of a job, converting a panic into a
// *PanicError and applying the fault-injection hook.
func execJob(ctx context.Context, fault *faultinject.Injector, job Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Label: job.Label, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := fault.Hit(faultinject.SiteSchedJob); err != nil {
		return err
	}
	return job.Do(ctx)
}

// Run executes the jobs on a bounded worker pool and blocks until every
// started job has finished. Workers pull jobs in submission order, so with
// Jobs = 1 execution is exactly the serial loop. On failure the
// lowest-index error observed is returned, in-flight jobs run to
// completion, and queued jobs are skipped. A context.Canceled that a job
// returns after the pool cancelled itself is the failure's echo, not its
// cause, so it never displaces the error that cancelled the pool. If the
// parent context aborts the run before every job completed, its error is
// returned instead.
func Run(opts Options, jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	parent := opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)

	var (
		mu       sync.Mutex
		done     int
		failed   int
		errIdx   = len(jobs)
		firstErr error
		start    = time.Now()
		wg       sync.WaitGroup

		running = opts.Obs.Gauge("cells_running")
		doneC   = opts.Obs.Counter("cells_done_total")
		errC    = opts.Obs.Counter("cell_errors_total")
		retryC  = opts.Obs.Counter("cell_retries_total")
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil {
					return // aborted: skip everything still queued
				}
				opts.Obs.Emit(obs.Event{Kind: obs.KindCellStart, Bank: -1, Label: jobs[i].Label})
				running.Add(1)
				cellStart := time.Now()
				err := execJob(ctx, opts.Fault, jobs[i])
				for retry := 1; err != nil && retry < opts.Retry.MaxAttempts &&
					opts.Retry.retryable(err) && ctx.Err() == nil; retry++ {
					retryC.Inc()
					opts.Obs.Emit(obs.Event{
						Kind: obs.KindCellRetry, Bank: -1, Label: jobs[i].Label,
						Value: int64(retry + 1), Detail: err.Error(),
					})
					if d := opts.Retry.delay(retry); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-ctx.Done():
							t.Stop()
						case <-t.C:
						}
						if ctx.Err() != nil {
							break // aborted mid-backoff: the last error stands
						}
					}
					err = execJob(ctx, opts.Fault, jobs[i])
				}
				running.Add(-1)
				fin := obs.Event{
					Kind: obs.KindCellFinish, Bank: -1, Label: jobs[i].Label,
					Value: time.Since(cellStart).Microseconds(),
				}
				if err != nil {
					fin.Detail = err.Error()
					errC.Inc()
				} else {
					doneC.Inc()
				}
				opts.Obs.Emit(fin)
				mu.Lock()
				if err != nil {
					failed++
					// Once a failure has cancelled the pool, a sibling's
					// context.Canceled is its echo, never its cause.
					echo := firstErr != nil && errors.Is(err, context.Canceled) &&
						!errors.Is(firstErr, context.Canceled)
					if i < errIdx && !echo {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					continue
				}
				done++
				if opts.Progress != nil {
					opts.Progress(Progress{
						Done: done, Failed: failed, Total: len(jobs),
						Cell: jobs[i].Label, Elapsed: time.Since(start),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && done < len(jobs) {
		// No job failed but not every job ran: the parent context aborted
		// the pool. Report its error so a cancelled sweep is never mistaken
		// for a complete one.
		firstErr = parent.Err()
	}
	if opts.Progress != nil {
		opts.Progress(Progress{
			Done: done, Failed: failed, Total: len(jobs),
			Elapsed: time.Since(start), Final: true, Err: firstErr,
		})
	}
	return firstErr
}

// Reporter returns a Progress callback rendering a live single-line status
// to w (stderr in the CLIs): the line is redrawn in place with \r and
// finished with a newline on the final notification — on abort as well as
// completion, so an error message never lands on a stale progress line.
func Reporter(w io.Writer) func(Progress) {
	open := false
	return func(p Progress) {
		if p.Final {
			if open {
				fmt.Fprintln(w)
				open = false
			}
			return
		}
		fmt.Fprintf(w, "\r%d/%d cells  %-44.44s  %s ",
			p.Done, p.Total, p.Cell, p.Elapsed.Round(time.Millisecond))
		open = true
	}
}
