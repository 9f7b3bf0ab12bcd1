// Package jobs holds the compile service's job registry and the queue
// its work flows through.
//
// It is built from three pieces:
//
//   - Engine — the registry of job resources. Submit admits a batch of
//     n expected results as a queued Job; the producer that compiles
//     the batch (the server's unit dispatcher) drives the job with
//     Start, Append and Finish. The engine runs nothing itself.
//   - Queue — the one work queue: lease/ack with requeue on lease
//     expiry. Every compile unit of every batch waits on it, and
//     in-process pullers or remote workers lease from it (see
//     internal/server and internal/worker).
//   - ResultStore — the per-job append-only result buffers: an
//     in-process table (NewMemStore, the default) or the durable
//     DiskStore, which also writes each buffer to a segment file. A
//     Buffer keeps each record as its encoded NDJSON line, encoded
//     once at Append: memory, segment and every stream share the
//     bytes.
//
// Each admitted submission becomes a Job resource that moves strictly
// forward through
//
//	queued → running → done
//	queued | running → canceled
//
// A job is queued until its producer hands a first unit to a compiler
// (or settles its last result); results known without compiling, such
// as cache hits, may append while it is still queued, so work waiting
// for a compiler always counts against admission. Results append to
// the job's buffer in completion order and remain readable — including
// concurrent and resumed reads from any offset — until a TTL after the
// job finishes, so a dropped results connection re-attaches with the
// offset it already has instead of recomputing. At most Capacity jobs
// may be queued at once; past it Submit fails with ErrQueueFull, which
// the caller maps to HTTP 429 + Retry-After.
//
// Each job owns a context that carries its ID (see JobID). Cancel and
// Close cancel it, and that is how cancellation reaches the producer
// and the schedulers compiling under it; Cancel also runs the
// producer's OnCancel hook before the job turns terminal. A job
// canceled while queued never had a unit claimed, so none of its work
// reached a scheduler.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	api "repro/api/v1"
	"repro/internal/ewma"
)

// ErrQueueFull is returned by Submit when the queued jobs are at
// capacity; the service maps it to queue_full / HTTP 429.
var ErrQueueFull = errors.New("jobs: admission queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: engine closed")

// jobIDKey carries a job's ID in its context.
type jobIDKey struct{}

// JobID returns the ID of the job whose context ctx is (or derives
// from), or "" for any other context. Work handed to an external
// system (the dispatcher's units) is keyed by this ID, so state
// restored after a crash re-attaches to the same job.
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// Options configure an Engine.
type Options struct {
	// Capacity bounds the number of queued jobs (0 = DefaultCapacity).
	// Running and finished jobs do not count against it.
	Capacity int
	// TTL is how long a finished job's results are retained for
	// polling and (re-)streaming (0 = DefaultTTL).
	TTL time.Duration
	// MaxFinished bounds the finished jobs retained at once; beyond
	// it the oldest are collected before their TTL (0 = DefaultMaxFinished).
	MaxFinished int
	// MaxRetainedBytes bounds the total encoded size of retained
	// results across finished jobs; above it the oldest are collected
	// before their TTL, so large unfetched batches cannot pin the heap
	// (0 = DefaultMaxRetainedBytes).
	MaxRetainedBytes int64
	// Store substitutes the result-buffer store
	// (nil = NewMemStore()); the durable service passes a DiskStore.
	Store ResultStore
}

// Defaults for Options.
const (
	DefaultCapacity         = 64
	DefaultTTL              = 5 * time.Minute
	DefaultMaxFinished      = 256
	DefaultMaxRetainedBytes = 256 << 20
)

func (o Options) capacity() int {
	if o.Capacity > 0 {
		return o.Capacity
	}
	return DefaultCapacity
}

func (o Options) ttl() time.Duration {
	if o.TTL > 0 {
		return o.TTL
	}
	return DefaultTTL
}

func (o Options) maxFinished() int {
	if o.MaxFinished > 0 {
		return o.MaxFinished
	}
	return DefaultMaxFinished
}

func (o Options) maxRetainedBytes() int64 {
	if o.MaxRetainedBytes > 0 {
		return o.MaxRetainedBytes
	}
	return DefaultMaxRetainedBytes
}

// ewmaAlpha weights new batch service-time samples in the smoothed
// average the adaptive Retry-After hint is computed from.
const ewmaAlpha = 0.2

// Engine is the job registry. Create one with New; it is safe for
// concurrent use.
type Engine struct {
	opt   Options
	store ResultStore

	mu            sync.Mutex
	byID          map[string]*Job
	queued        []*Job   // queued jobs in admission order
	reserved      int      // Submits past the capacity check, creating their buffer
	finished      []*Job   // terminal jobs in finish order, awaiting GC
	retainedBytes int64    // encoded result bytes across e.finished
	drops         []string // IDs evicted under mu, for unlock to drop
	running       int
	closed        bool
	serviceTime   ewma.Mean // smoothed service time of completed batches, in ns

	admitted  uint64
	rejected  uint64
	completed uint64
	canceled  uint64

	stop chan struct{} // closed by Close; stops the janitor
	wg   sync.WaitGroup
}

// New returns an engine with the given options. Its retention janitor
// runs until Close.
func New(opt Options) *Engine {
	e := &Engine{opt: opt, store: opt.Store, byID: make(map[string]*Job), stop: make(chan struct{})}
	if e.store == nil {
		e.store = NewMemStore()
	}
	e.wg.Add(1)
	go e.janitor()
	return e
}

// janitor sweeps expired retained jobs periodically, so an idle server
// (no Submit/Get/Metrics traffic to trigger the lazy GC) still honors
// the TTL instead of pinning expired results indefinitely.
func (e *Engine) janitor() {
	defer e.wg.Done()
	interval := e.opt.ttl() / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.mu.Lock()
			e.gcLocked(time.Now())
			e.unlock()
		case <-e.stop:
			return
		}
	}
}

// Close shuts the engine down: every live job finishes as canceled and
// its context is canceled, so producers and cooperative back-ends stop
// promptly. Later Submits fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait() // a concurrent first Close finishes the shutdown
		return
	}
	e.closed = true
	var all []*Job
	//dms:orderok shutdown sweep: every job gets the same cancellation, no cross-job state
	for _, j := range e.byID {
		all = append(all, j)
	}
	close(e.stop)
	e.mu.Unlock()
	for _, j := range all {
		j.finish(api.JobCanceled) // a no-op on finished jobs
	}
	e.wg.Wait()
}

// newID returns a fresh 128-bit job ID.
func newID() string {
	var b [16]byte
	rand.Read(b[:]) // never fails: an entropy error crashes the program instead
	return hex.EncodeToString(b[:])
}

// Submit admits a batch of n expected results as a queued job, or
// fails with ErrQueueFull when Capacity jobs are queued already. The
// job's buffer is created outside e.mu, since a durable store opens a
// file for it, under a slot reserved against Capacity: the bound stays
// exact, and a refused Submit touches no store.
func (e *Engine) Submit(n int) (*Job, error) {
	now := time.Now()
	e.mu.Lock()
	if e.closed {
		e.rejected++
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.gcLocked(now)
	if len(e.queued)+e.reserved >= e.opt.capacity() {
		e.rejected++
		e.unlock()
		return nil, ErrQueueFull
	}
	e.reserved++
	e.unlock()

	id := newID()
	buf := e.store.Create(id)

	e.mu.Lock()
	e.reserved--
	if e.closed {
		e.rejected++
		e.mu.Unlock()
		e.store.Drop(id)
		return nil, ErrClosed
	}
	j := e.newJobLocked(id, n, buf, now)
	e.admitLocked(j)
	e.mu.Unlock()
	return j, nil
}

// RecoverFinished re-registers a job restored from a durable store in
// a terminal state: its buffer (looked up in the store by ID) serves
// polls and streams exactly like a job that finished in this process,
// and the retention TTL counts from now. Used by the server when
// recovery finds a complete result set — or an unresumable partial
// one, which it registers as canceled with a failure note.
func (e *Engine) RecoverFinished(id string, n int, state api.JobState, failure string) (*Job, error) {
	if !state.Terminal() {
		return nil, fmt.Errorf("jobs: RecoverFinished with non-terminal state %q", state)
	}
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	j, err := e.recoveredJobLocked(id, n, now)
	if err != nil {
		return nil, err
	}
	j.cancel() // a finished job's context is spent
	j.state = state
	j.failure = failure
	j.finished = now
	e.byID[id] = j
	e.finished = append(e.finished, j)
	e.retainedBytes += j.buf.Stats().Bytes
	return j, nil
}

// Recover re-registers a restored job whose batch is still in flight
// as a queued job, exactly like Submit except that the buffer (with
// however many results the previous process persisted) is adopted from
// the store and no capacity check applies: the job was admitted once
// already. The caller drives it like a submitted job and must append
// only the missing results.
func (e *Engine) Recover(id string, n int) (*Job, error) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	j, err := e.recoveredJobLocked(id, n, now)
	if err != nil {
		return nil, err
	}
	e.admitLocked(j)
	return j, nil
}

// recoveredJobLocked builds the Job shell shared by the two recovery
// paths: ID checked for collisions, buffer adopted from the store
// (created empty when the store lost it). Requires e.mu.
func (e *Engine) recoveredJobLocked(id string, n int, now time.Time) (*Job, error) {
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.byID[id]; dup {
		return nil, fmt.Errorf("jobs: job %q already registered", id)
	}
	buf, ok := e.store.Get(id)
	if !ok {
		buf = e.store.Create(id)
	}
	return e.newJobLocked(id, n, buf, now), nil
}

// newJobLocked builds a queued job around buf. Requires e.mu.
func (e *Engine) newJobLocked(id string, n int, buf *Buffer, now time.Time) *Job {
	//dms:ctxok server-side job root: a job outlives the request that submitted it by design
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), jobIDKey{}, id))
	return &Job{
		id:      id,
		engine:  e,
		n:       n,
		buf:     buf,
		ctx:     ctx,
		cancel:  cancel,
		state:   api.JobQueued,
		changed: make(chan struct{}),
		created: now,
	}
}

// admitLocked registers a new queued job. Requires e.mu.
func (e *Engine) admitLocked(j *Job) {
	e.admitted++
	e.byID[j.id] = j
	e.queued = append(e.queued, j)
}

// Get returns the job with the given ID, if it is still known (queued,
// running, or finished within its retention window).
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.unlock()
	e.gcLocked(time.Now())
	j, ok := e.byID[id]
	return j, ok
}

// Cancel cancels the job with the given ID, reporting whether the ID
// was known: it cancels the job's context, runs the producer's
// OnCancel hook, and only then finishes the job as canceled, so by the
// time anyone sees the terminal state the producer has withdrawn the
// job's pending work. Canceling a terminal job is an idempotent no-op.
func (e *Engine) Cancel(id string) (*Job, bool) {
	e.mu.Lock()
	j, ok := e.byID[id]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.cancel()
	j.mu.Lock()
	withdraw := j.onCancel
	j.mu.Unlock()
	if withdraw != nil {
		withdraw()
	}
	j.finish(api.JobCanceled)
	return j, true
}

// Metrics snapshots the job gauges and counters in the wire form. It
// leaves Workers unset: the engine runs nothing, so the pool size is
// the caller's to report.
func (e *Engine) Metrics() api.QueueMetrics {
	e.mu.Lock()
	defer e.unlock()
	e.gcLocked(time.Now())
	return api.QueueMetrics{
		Depth:         len(e.queued),
		Running:       e.running,
		Retained:      len(e.finished),
		RetainedBytes: e.retainedBytes,
		Capacity:      e.opt.capacity(),
		Admitted:      e.admitted,
		Rejected:      e.rejected,
		Completed:     e.completed,
		Canceled:      e.canceled,
		EWMAServiceMS: e.serviceTime.Value / float64(time.Millisecond),
	}
}

// unqueueLocked removes a job that leaves the queued state from the
// admission-order list. Requires e.mu.
func (e *Engine) unqueueLocked(j *Job) {
	if i := slices.Index(e.queued, j); i >= 0 {
		e.queued = slices.Delete(e.queued, i, i+1)
	}
}

// retireLocked moves a terminal job into the finished list — or drops
// it outright when it was released — and applies the retention bounds.
// Requires e.mu.
func (e *Engine) retireLocked(j *Job, now time.Time) {
	j.mu.Lock()
	released := j.released
	j.mu.Unlock()
	if released {
		delete(e.byID, j.id)
		e.drops = append(e.drops, j.id)
	} else {
		e.finished = append(e.finished, j)
		e.retainedBytes += j.buf.Stats().Bytes
	}
	e.gcLocked(now)
}

// Release marks the job as not worth retaining: as soon as it is
// terminal (immediately if it already is) it is dropped from the
// engine's table instead of occupying a retention slot until the TTL.
// The synchronous wrapper uses this for jobs whose ID is never exposed
// to a client, so bursts of synchronous traffic cannot evict
// asynchronous jobs' retained results. Holders of the *Job can keep
// reading it; only the ID lookup is gone.
func (e *Engine) Release(id string) {
	e.mu.Lock()
	defer e.unlock()
	j, ok := e.byID[id]
	if !ok {
		return
	}
	j.mu.Lock() //dms:lockok established lock order: engine.mu before job.mu
	j.released = true
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		return // the terminal transition's retire will drop it
	}
	delete(e.byID, id)
	e.drops = append(e.drops, id)
	for i, f := range e.finished {
		if f == j {
			e.finished = append(e.finished[:i], e.finished[i+1:]...)
			e.retainedBytes -= j.buf.Stats().Bytes
			break
		}
	}
}

// gcLocked evicts finished jobs past their TTL or beyond the retained
// count/byte bounds (oldest first); unlock drops their buffers.
// Requires e.mu.
func (e *Engine) gcLocked(now time.Time) {
	ttl := e.opt.ttl()
	maxKeep := e.opt.maxFinished()
	maxBytes := e.opt.maxRetainedBytes()
	keep := e.finished[:0]
	for i, j := range e.finished {
		expired := now.Sub(j.FinishedAt()) >= ttl
		overflow := len(e.finished)-i > maxKeep
		// retainedBytes shrinks as this loop evicts, so the check
		// re-evaluates per job and stops at the first one that fits.
		overweight := e.retainedBytes > maxBytes
		if expired || overflow || overweight {
			e.retainedBytes -= j.buf.Stats().Bytes
			delete(e.byID, j.id)
			e.drops = append(e.drops, j.id)
			continue
		}
		keep = append(keep, j)
	}
	e.finished = keep
}

// unlock releases e.mu, then drops the buffers of the jobs evicted
// under it: on a durable store a Drop closes and removes a segment
// file, and a slow disk must not stall every engine call behind it.
func (e *Engine) unlock() {
	drops := e.drops
	e.drops = nil
	e.mu.Unlock()
	for _, id := range drops {
		e.store.Drop(id)
	}
}

// Job is one admitted batch: its lifecycle state, its context, and its
// append-only result buffer, which lives in the engine's ResultStore.
// All methods are safe for concurrent use.
type Job struct {
	id     string
	engine *Engine
	n      int
	buf    *Buffer
	ctx    context.Context
	cancel context.CancelFunc

	// appendMu orders appends with the terminal transition, so no
	// result lands after a reader has seen a terminal state. It, not mu,
	// is held across the buffer write, which on a durable store is an
	// fsync that readers must not wait on.
	appendMu sync.Mutex

	mu       sync.Mutex
	state    api.JobState
	failure  string
	released bool          // drop instead of retain once terminal
	onCancel func()        // the producer's withdraw step; see OnCancel
	changed  chan struct{} // closed and replaced on every mutation
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the job's resource ID.
func (j *Job) ID() string { return j.id }

// N returns the number of results the batch will produce when it runs
// to completion.
func (j *Job) N() int { return j.n }

// Context returns the job's context: it carries the job ID (see
// JobID) and is canceled when the job is canceled, the engine closes,
// or the job finishes.
func (j *Job) Context() context.Context { return j.ctx }

// OnCancel registers f to run inside Cancel, after the job's context
// is canceled and before the job turns terminal. The producer
// withdraws the job's pending work there, and a durable producer
// records the cancellation, so once anyone can see the job canceled
// none of its work is left for a restart to resume. Close does not run
// f: work outstanding at shutdown is what a restart must find. The
// hook is dropped once the job is terminal.
func (j *Job) OnCancel(f func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.onCancel = f
	}
}

// FinishedAt returns the terminal transition time (zero while the job
// is live).
func (j *Job) FinishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// Start moves a queued job to running. It is idempotent: on a running
// or terminal job it does nothing.
func (j *Job) Start() {
	e := j.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	j.mu.Lock() //dms:lockok established lock order: engine.mu before job.mu
	if j.state != api.JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = api.JobRunning
	j.started = time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
	e.unqueueLocked(j)
	e.running++
}

// Append adds a group of results to the buffer in one Buffer.Append
// (one segment write on a durable store) and wakes the streams
// following it once. A terminal job's buffer never grows: an Append
// after the terminal transition is dropped whole, so a result racing a
// cancel cannot change a summary a stream has already sent.
func (j *Job) Append(recs ...api.JobResult) {
	if len(recs) == 0 {
		return
	}
	j.appendMu.Lock()
	defer j.appendMu.Unlock()
	j.mu.Lock() //dms:lockok appendMu is taken before mu; see its comment
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return
	}
	//dms:lockok appendMu orders appends with the terminal transition; see its comment
	j.buf.Append(recs...)
	j.mu.Lock() //dms:lockok appendMu is taken before mu; see its comment
	j.broadcastLocked()
	j.mu.Unlock()
}

// Finish marks the job done: every result it will produce has been
// appended. On a terminal job it does nothing.
func (j *Job) Finish() { j.finish(api.JobDone) }

// finish moves the job to a terminal state, cancels its context and
// retires it, reporting whether this call made the transition (false:
// already terminal, a no-op). A done job's service time, from Start,
// feeds the Retry-After average.
func (j *Job) finish(state api.JobState) bool {
	e := j.engine
	j.appendMu.Lock()
	defer j.appendMu.Unlock()
	now := time.Now()
	e.mu.Lock() //dms:lockok appendMu is taken before engine.mu; see its comment
	defer e.unlock()
	j.mu.Lock() //dms:lockok established lock order: engine.mu before job.mu
	prev := j.state
	if prev.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.finished = now
	j.onCancel = nil // a retained job must not pin its producer's state
	j.broadcastLocked()
	started := j.started
	j.mu.Unlock()
	j.cancel()
	switch prev {
	case api.JobQueued:
		e.unqueueLocked(j)
	case api.JobRunning:
		e.running--
	}
	if state == api.JobCanceled {
		e.canceled++
	} else {
		e.completed++
		if !started.IsZero() {
			e.serviceTime.Observe(ewmaAlpha, float64(now.Sub(started)))
		}
	}
	e.retireLocked(j, now)
	return true
}

// broadcastLocked wakes every waiter by closing the current change
// channel and installing a fresh one. Requires j.mu.
func (j *Job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// queuePos returns the job's 1-based position among the queued jobs in
// admission order, or 0 when it is not queued.
func (j *Job) queuePos() int {
	e := j.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Index(e.queued, j) + 1
}

// Snapshot renders the job in its wire form, including the live queue
// position.
func (j *Job) Snapshot() api.Job {
	bs := j.buf.Stats()
	j.mu.Lock()
	job := api.Job{
		ID:            j.id,
		State:         j.state,
		Jobs:          j.n,
		Done:          bs.Results,
		Errors:        bs.Errors,
		Cached:        bs.Cached,
		Error:         j.failure,
		CreatedUnixMS: j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		job.StartedUnixMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		job.FinishedUnixMS = j.finished.UnixMilli()
	}
	j.mu.Unlock()
	// The position scan takes the engine lock; only pay for it while
	// the job can actually have one — polls of running/finished jobs
	// are the dominant traffic.
	if job.State == api.JobQueued {
		job.QueuePos = j.queuePos()
	}
	return job
}

// Results returns the buffered results' encoded NDJSON lines from
// offset from (in completion order) and reports the job's state at
// that instant. The lines are shared and must not be modified. A from
// beyond the buffer yields an empty slice. The state is read before
// the buffer, so a terminal state guarantees the returned slice covers
// the job's full result set.
func (j *Job) Results(from int) ([][]byte, api.JobState) {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	return j.buf.Results(from), state
}

// Changed returns a channel closed at the next mutation (new result or
// state transition). Grab it BEFORE snapshotting with Results: a
// mutation landing between the two closes the channel you hold, so the
// wait returns immediately instead of missing the final transition:
//
//	for {
//		ch := j.Changed()
//		recs, state := j.Results(from)
//		... emit recs; from += len(recs) ...
//		if state.Terminal() { break }
//		select { case <-ch: case <-ctx.Done(): return }
//	}
//
// (Wait wraps this pattern for callers that only need the terminal
// state.)
func (j *Job) Changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// Summary renders the terminal summary record of the job's stream: the
// counts over the full result set.
func (j *Job) Summary() api.Summary {
	bs := j.buf.Stats()
	return api.Summary{Jobs: bs.Results, Errors: bs.Errors, Cached: bs.Cached}
}

// Wait blocks until the job reaches a terminal state or ctx ends,
// returning the terminal state (or the current state with ctx's error).
func (j *Job) Wait(ctx context.Context) (api.JobState, error) {
	for {
		j.mu.Lock()
		state := j.state
		ch := j.changed
		j.mu.Unlock()
		if state.Terminal() {
			return state, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return state, ctx.Err()
		}
	}
}
