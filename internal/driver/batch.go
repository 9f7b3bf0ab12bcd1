package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Job is one compilation unit: schedule one loop on one machine with
// one registered back-end.
type Job struct {
	Loop      *loop.Loop
	Machine   *machine.Machine
	Scheduler string // registry name
	Options   Options
}

func (j Job) String() string {
	ln, mn := "<nil>", "<nil>"
	if j.Loop != nil {
		ln = j.Loop.Name
	}
	if j.Machine != nil {
		mn = j.Machine.Name
	}
	return fmt.Sprintf("%s/%s/%s", ln, mn, j.Scheduler)
}

// Result holds the outcome of one Job. Exactly one of Schedule and
// Err is meaningful: a nil Err guarantees a verified schedule.
type Result struct {
	Job      Job
	Schedule *schedule.Schedule
	Stats    Stats
	Metrics  schedule.Metrics // measured at the loop's trip count
	Err      error
}

// BatchOptions tune CompileAll.
type BatchOptions struct {
	// Parallelism is the worker count (0 = GOMAXPROCS). With Timeout
	// unset the result slice is identical for every value, only wall
	// time changes; with a Timeout, contention at higher parallelism
	// can push a borderline job over the limit.
	Parallelism int
	// Timeout bounds each job's scheduling time (0 = none). A timed-out
	// job yields an error Result. The deadline is delivered to the
	// back-end through its Schedule context, so cooperative schedulers
	// (all four built-ins) abort their II search and release the worker;
	// a non-cooperative back-end is reported timed out immediately and
	// its goroutine left to drain in the background.
	Timeout time.Duration
	// Latencies defaults to machine.DefaultLatencies().
	Latencies *machine.Latencies
	// Registry resolves scheduler names (nil = Default).
	Registry *Registry
}

func (o BatchOptions) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o BatchOptions) latencies() machine.Latencies {
	if o.Latencies != nil {
		return *o.Latencies
	}
	return machine.DefaultLatencies()
}

func (o BatchOptions) registry() *Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return Default
}

// Jobs builds the (loop × machine × scheduler) cross product in
// deterministic order: loops outermost, schedulers innermost.
func Jobs(loops []*loop.Loop, machines []*machine.Machine, schedulers []string, opt Options) []Job {
	jobs := make([]Job, 0, len(loops)*len(machines)*len(schedulers))
	for _, l := range loops {
		for _, m := range machines {
			for _, s := range schedulers {
				jobs = append(jobs, Job{Loop: l, Machine: m, Scheduler: s, Options: opt})
			}
		}
	}
	return jobs
}

// CompileAll runs every job on a worker pool and returns one Result
// per job, in job order, regardless of parallelism or goroutine
// interleaving. A failing, panicking or timed-out job is reported in
// its own Result and never aborts the rest of the batch. Canceling ctx
// aborts in-progress scheduling work cooperatively (each back-end
// checks the context inside its II search) and fails every remaining
// job with a cancellation Result; CompileAll still returns one Result
// per job.
func CompileAll(ctx context.Context, jobs []Job, opt BatchOptions) []Result {
	results := make([]Result, len(jobs))
	lat := opt.latencies()
	reg := opt.registry()
	ForEach(len(jobs), opt.parallelism(), func(i int) {
		results[i] = compileTimed(ctx, jobs[i], lat, reg, opt.Timeout)
	})
	return results
}

// Compile runs one job synchronously on the caller's goroutine with
// the batch options' registry, latencies and timeout; it is the
// single-job entry point for harnesses that manage their own
// parallelism (e.g. internal/experiment inside ForEach).
func Compile(ctx context.Context, job Job, opt BatchOptions) Result {
	return compileTimed(ctx, job, opt.latencies(), opt.registry(), opt.Timeout)
}

// compileTimed compiles one job under ctx, narrowed by the per-job
// timeout. The built-in back-ends check their context inside the II
// search, so they run inline on the caller's goroutine, as does every
// job under a context that can never expire. Any other back-end runs
// on a goroutine under a watchdog select that converts ctx expiry into
// an error Result even if the back-end ignores its context (the
// goroutine then drains in the background).
func compileTimed(ctx context.Context, job Job, lat machine.Latencies, reg *Registry, timeout time.Duration) Result {
	ownDeadline := false
	if timeout > 0 {
		// Only claim "timed out after Timeout" when the per-job bound is
		// the one that can actually fire; an earlier parent deadline
		// survives context.WithTimeout and must be reported as the
		// caller's, not ours.
		parent, ok := ctx.Deadline()
		ownDeadline = !ok || time.Now().Add(timeout).Before(parent)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if ctx.Err() != nil {
		return ctxResult(ctx, job, timeout, ownDeadline)
	}
	sched, err := reg.Get(job.Scheduler)
	if err != nil {
		return Result{Job: job, Err: err}
	}
	var r Result
	if _, ok := sched.(cooperative); ok || ctx.Done() == nil {
		r = compileOne(ctx, job, sched, lat)
	} else {
		done := make(chan Result, 1)
		go func() {
			done <- compileOne(ctx, job, sched, lat)
		}()
		select {
		case r = <-done:
		case <-ctx.Done():
			return ctxResult(ctx, job, timeout, ownDeadline)
		}
	}
	if r.Err != nil && ctx.Err() != nil &&
		(errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)) {
		return ctxResult(ctx, job, timeout, ownDeadline)
	}
	return r
}

// cooperative marks the built-in back-ends (adapters.go): each returns
// promptly once its context is done, so it needs no watchdog. The
// method is unexported, so a back-end from outside the package always
// gets one.
type cooperative interface{ cooperative() }

// ctxResult normalizes an expired context into the Result the batch
// reports, so cooperative and watchdog-detected expiries read the
// same. The error always wraps the context cause, so callers can
// distinguish cancellation and timeout from scheduling failure with
// errors.Is whichever message was chosen.
func ctxResult(ctx context.Context, job Job, timeout time.Duration, ownDeadline bool) Result {
	if ownDeadline && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return Result{Job: job, Err: fmt.Errorf("driver: %s timed out after %v: %w", job, timeout, context.DeadlineExceeded)}
	}
	return Result{Job: job, Err: fmt.Errorf("driver: %s: %w", job, context.Cause(ctx))}
}

func compileOne(ctx context.Context, job Job, sched Scheduler, lat machine.Latencies) (r Result) {
	r = Result{Job: job}
	// A registered back-end may come from outside the repo; keep its
	// panics inside this job's Result so they cannot take down a
	// whole batch (or the worker goroutine).
	defer func() {
		if p := recover(); p != nil {
			r = Result{Job: job, Err: fmt.Errorf("driver: %s panicked: %v", job, p)}
		}
	}()
	if job.Loop == nil || job.Machine == nil {
		r.Err = fmt.Errorf("driver: %s: job needs a loop and a machine", job)
		return r
	}
	g, copies := Prepare(sched, job.Loop, job.Machine, lat)
	s, st, err := sched.Schedule(ctx, g, job.Machine, job.Options)
	r.Stats = st
	if err != nil {
		r.Err = fmt.Errorf("driver: %s: %w", job, err)
		return r
	}
	if s == nil {
		r.Err = fmt.Errorf("driver: %s: scheduler returned no schedule and no error", job)
		return r
	}
	if sched.Clustered() {
		// Copy before inserting copies_inserted: the interface does not
		// require back-ends to return a fresh Extra map, and writing
		// into a shared one would race across workers.
		extra := make(map[string]int, len(r.Stats.Extra)+1)
		for k, v := range r.Stats.Extra {
			extra[k] = v
		}
		extra["copies_inserted"] = copies
		r.Stats.Extra = extra
	}
	if err := Verify(s); err != nil {
		r.Err = fmt.Errorf("driver: %s: invalid schedule: %w", job, err)
		return r
	}
	r.Schedule = s
	r.Metrics = s.Measure(job.Loop.Trip)
	return r
}

// ForEachFirstErr is ForEach for units of work that can fail: it runs
// f(0..n-1) on the worker pool and returns the first error any unit
// reported (first-set wins, not index order), or nil. Accumulation
// into shared state is still the closure's job; only the error
// capture is centralized so every harness aborts with the same
// semantics.
func ForEachFirstErr(n, parallelism int, f func(i int) error) error {
	var (
		mu       sync.Mutex
		firstErr error
	)
	ForEach(n, parallelism, func(i int) {
		if err := f(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// ForEach runs f(0..n-1) on a worker pool of the given size
// (0 = GOMAXPROCS). It is the bare fan-out primitive for harnesses
// whose unit of work is not a single Job (e.g. the figure experiments,
// which pair two machines per unit); f must handle its own locking.
//
//dms:ctxok bare fan-out primitive; callers scope cancellation around the whole fan-out
func ForEach(n, parallelism int, f func(i int)) {
	if n <= 0 {
		return
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
