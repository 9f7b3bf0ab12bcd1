package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
)

// Defaults for the worker-pull dispatcher.
const (
	// DefaultLeaseTTL is the heartbeat deadline of a worker lease: a
	// lease that posts nothing for this long has its unresolved units
	// returned to the queue.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultLeaseChunk is the units handed out to a lease request that
	// names no size of its own (MaxUnits 0 or negative) — the warm-up
	// size before a self-scheduling worker's chunk calculator has
	// observations.
	DefaultLeaseChunk = 8
	// DefaultLeaseChunkMax caps the units handed out per lease no
	// matter how many the worker asks for: the requeue cost of a lost
	// lease (and the coordinator's exposure to one slow worker hoarding
	// the queue) stays bounded. Self-scheduling workers clamp their
	// requests to the same cap.
	DefaultLeaseChunkMax = 256
	// DefaultWorkerPoll is the re-poll hint sent with empty leases.
	DefaultWorkerPoll = 500 * time.Millisecond
	// maxLeaseWait caps a lease request's long-poll budget.
	maxLeaseWait = 10 * time.Second
)

// errLeaseExpired reports a post under a lease the dispatcher no
// longer honors; the handler maps it to the lease_expired wire error.
var errLeaseExpired = errors.New("server: lease expired")

// dispatcher is the server's one execution path: it decomposes every
// admitted batch into compile units on a jobs.Queue, which in-process
// pullers (standalone) or worker processes (Distribute) lease from —
// remote leases come in chunks routed by the units' content hashes,
// with work stealing (see jobs.Queue) — and appends the results to
// each batch's job. The queue is the one record of which units are
// live and which lease holds them: each task carries its unit as
// payload, and a unit is resolved exactly once, by the queue ack of
// its result (see postResults), so a result raced by a lease expiry,
// or posted under a lease that does not hold the unit, is never
// appended.
type dispatcher struct {
	q        jobs.Queue
	cache    *Cache
	durable  *durableState    // nil without Options.DataDir
	registry *driver.Registry // back-ends of the in-process pullers
	pullers  int              // in-process pullers; 0 leaves every unit to workers
	perBatch int32            // pullers one batch may hold at once
	ttl      time.Duration

	// Counters over the results batches' jobs receive (see observe).
	jobErrors atomic.Int64
	portfolio portfolioAgg

	dispatched atomic.Uint64 // units queued
	resolved   atomic.Uint64 // units acked off the queue or withdrawn from it

	mu      sync.Mutex
	workers map[string]*workerState // per-worker dispatch gauges, keyed by worker ID
	closed  bool                    // Close has begun

	shutdown atomic.Bool // process exiting: leave canceled batches for a restart

	stop chan struct{}
	wg   sync.WaitGroup // janitor, pullers, batches being queued
}

// workerState is the dispatch table row of one worker: what it
// advertises, how it is pacing itself, and what it has resolved. The
// coordinator builds this table passively from lease traffic — a
// worker is "live" while its last lease request is recent — and the
// janitor prunes rows that have gone quiet.
type workerState struct {
	firstSeen  time.Time
	lastSeen   time.Time
	schedulers []string // advertised scheduler names, sorted; nil = everything
	chunk      int      // last granted chunk size (post-clamp)
	ewmaMS     float64  // worker's self-reported per-unit EWMA, milliseconds
	resolved   uint64   // units this worker resolved
	cached     uint64   // resolved units that were worker-cache hits
}

// wire renders the row as the /v1/metrics gauge entry.
func (w *workerState) wire(now time.Time) api.WorkerMetrics {
	m := api.WorkerMetrics{
		EWMAUnitMS:    w.ewmaMS,
		CurrentChunk:  w.chunk,
		ResolvedUnits: w.resolved,
		Schedulers:    w.schedulers,
	}
	if elapsed := now.Sub(w.firstSeen).Seconds(); elapsed > 0 && w.resolved > 0 {
		m.UnitsPerSec = float64(w.resolved) / elapsed
	}
	if w.resolved > 0 {
		m.CacheHitRate = float64(w.cached) / float64(w.resolved)
	}
	return m
}

// unit is one dispatched compile unit: the in-process job, its
// compile settings, and the batch it reports back to.
type unit struct {
	id      string
	key     string // content hash (cache key + routing hash)
	job     driver.Job
	timeout time.Duration
	noCache bool
	batch   *dispatchBatch
	index   int

	// The canonical loop text and machine config the key was computed
	// over, shared read-only with the batch's other units of the same
	// loop or machine: the wire form's payload, rendered once.
	loopText string
	config   json.RawMessage
}

// wireForm returns the unit's self-contained wire form: canonical loop
// text, the full machine config, and the scheduler options. It renders
// nothing; the text and config are the ones keying the unit rendered.
func (u *unit) wireForm() api.WorkUnit {
	return api.WorkUnit{
		ID:        u.id,
		Hash:      u.key,
		Loop:      u.loopText,
		Machine:   api.MachineSpec{Config: u.config},
		Scheduler: u.job.Scheduler,
		Options:   wireOptions(u.job.Options),
		TimeoutMS: int(u.timeout / time.Millisecond),
		NoCache:   u.noCache,
	}
}

// dispatchBatch tracks one batch's outstanding units on behalf of its
// job. closed flips when the batch ends (all units resolved, or its job
// canceled); results arriving afterwards, or once the job's context
// has ended, are discarded. ctx, the job's context, is what in-process
// pullers compile the batch's units under.
type dispatchBatch struct {
	job      *jobs.Job
	ctx      context.Context
	pulling  atomic.Int32  // units in-process pullers hold
	started  atomic.Bool   // the job has been started
	units    []*unit       // every unit queued; complete once enqueued is closed
	enqueued chan struct{} // closed when enqueue stops; nil for a recovered batch
	mu       sync.Mutex
	closed   bool
	pending  int
}

func newBatch(j *jobs.Job, pending int) *dispatchBatch {
	return &dispatchBatch{job: j, ctx: j.Context(), pending: pending}
}

// start marks the batch's job running, once: at the first unit a
// puller or worker claims. Results settled without a compile (cache
// hits) do not start it, so a batch whose remaining units still wait
// for a compiler keeps counting against admission.
func (b *dispatchBatch) start() {
	if b.started.CompareAndSwap(false, true) {
		b.job.Start()
	}
}

func newDispatcher(cache *Cache, durable *durableState, opt Options) *dispatcher {
	ttl := opt.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	pullers := opt.Parallelism
	if pullers <= 0 {
		pullers = 2 * runtime.GOMAXPROCS(0)
	}
	if opt.Distribute {
		pullers = 0 // every unit goes to remote workers
	}
	d := &dispatcher{
		q:        jobs.NewMemQueue(), // admission is bounded per batch upstream
		cache:    cache,
		durable:  durable,
		registry: opt.Registry,
		pullers:  pullers,
		perBatch: int32((pullers + 1) / 2),
		ttl:      ttl,
		workers:  make(map[string]*workerState),
		stop:     make(chan struct{}),
	}
	d.wg.Add(1)
	go d.janitor()
	return d
}

// startPullers launches the in-process puller pool, once durable
// recovery has queued the recovered units.
func (d *dispatcher) startPullers() {
	d.wg.Add(d.pullers)
	for range d.pullers {
		go d.pull()
	}
}

// pullerOwner is the queue owner every in-process puller leases as.
const pullerOwner = "local"

// pull is one in-process puller. It leases one unit at a time with
// ttl 0 — an in-process lease cannot outlive its holder — compiles the
// unit's own job under its batch's context, and resolves the result
// through postResults, the queue Ack a remote worker's post takes. A
// batch holds at most about perBatch pullers, half the pool, so
// side-by-side batches share the pool rather than the oldest taking
// all of it. Once shutdown begins a puller resolves nothing, leaving
// its units pending in their segments for a restart.
func (d *dispatcher) pull() {
	defer d.wg.Done()
	// The count is read here and raised after the lease, so concurrent
	// leases may overshoot the cap briefly; it is a share, not a bound.
	underCap := func(t jobs.Task) bool {
		return t.Payload.(*unit).batch.pulling.Load() < d.perBatch
	}
	for !d.shutdown.Load() {
		ch := d.q.Changed()
		lease, tasks := d.q.LeaseFiltered(pullerOwner, 1, 0, underCap)
		if len(tasks) == 0 {
			select {
			case <-ch:
				continue
			case <-d.stop:
				return
			}
		}
		u := claim(tasks)[0]
		u.batch.pulling.Add(1)
		rec := CompileRecord(u.batch.ctx, d.cache, u.key, u.job, driver.BatchOptions{
			Timeout:   u.timeout,
			Latencies: &u.job.Machine.Lat,
			Registry:  d.registry,
		}, u.noCache)
		if d.shutdown.Load() {
			return
		}
		d.postResults(lease, []api.UnitResult{{Unit: u.id, Result: rec}}, true)
		u.batch.pulling.Add(-1)
	}
}

// claim returns a lease's units, whose tasks carry them as payload,
// and starts their batches' jobs.
func claim(tasks []jobs.Task) []*unit {
	units := make([]*unit, len(tasks))
	for i, t := range tasks {
		units[i] = t.Payload.(*unit)
		units[i].batch.start()
	}
	return units
}

// janitor sweeps overdue leases while no worker traffic is driving the
// lazy expiry, so a crashed worker's units requeue even on an
// otherwise idle coordinator, and prunes worker rows that have gone
// quiet.
func (d *dispatcher) janitor() {
	defer d.wg.Done()
	interval := d.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := time.Now()
			d.q.Expire(now)
			d.mu.Lock()
			// Drop worker rows that have gone quiet for many TTLs: the
			// gauge table tracks the current fleet, not its whole history.
			//dms:orderok janitor prune: each worker row is aged independently
			for id, ws := range d.workers {
				if now.Sub(ws.lastSeen) > workerRetention(d.ttl) {
					delete(d.workers, id)
				}
			}
			d.mu.Unlock()
		case <-d.stop:
			return
		}
	}
}

// workerRetention is how long a quiet worker keeps its gauge row, and
// workerLiveness is how recently a worker must have leased for its
// scheduler advertisement to count toward fleet coverage. Both scale
// with the lease TTL (a worker busy on a full chunk legitimately stays
// quiet for most of one), with floors that keep short test TTLs from
// flapping the table.
func workerRetention(ttl time.Duration) time.Duration {
	r := 40 * ttl
	if r < time.Minute {
		r = time.Minute
	}
	return r
}

func workerLiveness(ttl time.Duration) time.Duration {
	l := 4 * ttl
	if l < 2*time.Second {
		l = 2 * time.Second
	}
	return l
}

// Close stops the janitor, the pullers and the batches still being
// queued, and waits for them. The engine must have closed first: that
// cancels every job, which aborts what the pullers compile and stops
// the batches being queued.
func (d *dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	close(d.stop)
	d.wg.Wait()
}

// submit hands an admitted batch to the unit queue. Keying and
// queueing run on a goroutine of their own, so the submitting request
// answers at once: cache hits resolve immediately, the rest become
// leasable units. The batch's job receives one record stream whoever
// compiles the units — completion order, Index set, Cached marking
// cache hits — and finishes with its last unit. jobList is never empty
// (request validation refuses an empty batch). Canceling the job
// withdraws its pending units before it turns terminal (see
// cancelBatch).
func (d *dispatcher) submit(j *jobs.Job, jobList []driver.Job, timeout time.Duration, noCache bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return // the engine closed first, and canceled j
	}
	b := newBatch(j, len(jobList))
	b.enqueued = make(chan struct{})
	j.OnCancel(func() { d.cancelBatch(b) })
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(b.enqueued)
		d.enqueue(b, jobList, nil, timeout, noCache)
	}()
}

// resume gives a job that durable recovery re-registered a batch of its
// pending units, the indices of jobList that done leaves false, and
// queues them through enqueue, the path a submit takes, before any
// puller starts. When the units could not be rebuilt (err), each
// pending unit settles as an error record instead, so the job still
// reaches a terminal state. It returns the number of units queued.
func (d *dispatcher) resume(j *jobs.Job, jobList []driver.Job, done []bool, pending int, err error, timeout time.Duration, noCache bool) int {
	b := newBatch(j, pending)
	j.OnCancel(func() { d.cancelBatch(b) })
	if err != nil {
		var failed []outcome
		for i, ok := range done {
			if !ok {
				failed = append(failed, outcome{rec: api.JobResult{Index: i, ErrorCode: api.CodeInternal,
					Error: fmt.Sprintf("recovered unit unusable: %v", err)}})
			}
		}
		d.settle(b, failed...)
		return 0
	}
	d.enqueue(b, jobList, done, timeout, noCache)
	return len(b.units)
}

// enqueue keys the batch's units — every index of jobList that done
// (nil for a new batch) leaves false — and queues each one as soon as
// it is keyed, so the first compile starts while the rest are still
// being keyed. Unit IDs derive from the job ID, so a unit rebuilt after
// a restart has the ID it had before. It stops early when the job's
// context ends; units not yet keyed then never reach the queue.
func (d *dispatcher) enqueue(b *dispatchBatch, jobList []driver.Job, done []bool, timeout time.Duration, noCache bool) {
	batchID := b.job.ID()
	// Content-hash routing steers identical units to a remote worker's
	// warm cache; in-process pullers share one cache, so their units go
	// unrouted, in plain FIFO order.
	route := d.pullers == 0
	keys := newKeyer()
	for i, job := range jobList {
		if done != nil && done[i] {
			continue
		}
		if b.ctx.Err() != nil {
			return // canceled: cancelBatch withdraws what was queued
		}
		key, loopText, config := keys.key(job)
		if !noCache {
			// A puller resolves a miss through Cache.Do, which counts
			// it; with no pullers the miss is counted here.
			if v, ok := d.cache.lookup(key, d.pullers == 0); ok {
				rec := v.(api.JobResult)
				rec.Index = i
				rec.Cached = true
				d.settle(b, outcome{rec, job.Scheduler})
				continue
			}
		}
		u := &unit{
			id:       batchID + "/" + strconv.Itoa(i),
			key:      key,
			job:      job,
			timeout:  timeout,
			noCache:  noCache,
			batch:    b,
			index:    i,
			loopText: loopText,
			config:   config,
		}
		t := jobs.Task{ID: u.id, Payload: u}
		if route {
			t.Hash = u.key
		}
		b.units = append(b.units, u)
		// Counted before it is queued, so resolved never runs ahead of
		// dispatched. The unit queue is unbounded — admission control
		// already happened at the engine — and unit IDs are unique, so
		// Enqueue cannot fail.
		d.dispatched.Add(1)
		if err := d.q.Enqueue(t); err != nil {
			panic(fmt.Sprintf("server: unit enqueue failed: %v", err))
		}
	}
}

// cancelBatch is the job's OnCancel hook: it runs inside the engine's
// Cancel, after the job's context is canceled and before the job turns
// terminal. It waits for the batch's enqueue to stop, closes the batch
// (discarding any later results) and withdraws its still-pending units
// from the queue. A durable server then appends the job's terminal
// record to its segment, before the client is told the job is
// canceled, so a restart does not resume it. Units a worker or puller
// already holds are released when their results arrive — discarded,
// acked off the queue — or by lease expiry; the worker learns they are
// moot from the Canceled list of its next results post.
//
// During process shutdown, and for a batch that already ended, nothing
// is withdrawn or recorded: a synchronous request cut short by the exit
// cancels its job, but its units are not abandoned work — they are
// exactly the state the next process must recover.
func (d *dispatcher) cancelBatch(b *dispatchBatch) {
	if b.enqueued != nil {
		<-b.enqueued
	}
	b.mu.Lock()
	closed := b.closed
	b.closed = true
	b.mu.Unlock()
	if closed || d.shutdown.Load() {
		return
	}
	for _, u := range b.units {
		if d.q.Withdraw(u.id) {
			d.resolved.Add(1)
		}
	}
	if d.durable != nil {
		d.durable.recordCanceled(b.job)
	}
}

// noteWorker records the lease request into the worker's dispatch
// table row and returns the eligibility predicate routing should apply
// for it: nil when the worker takes anything (no advertisement), else
// a closure over a snapshot of the advertisement and the fleet's
// current coverage — deliberately lock-free, because the queue invokes
// it under its own lock.
func (d *dispatcher) noteWorker(req api.LeaseRequest, granted int) func(jobs.Task) bool {
	now := time.Now()
	d.mu.Lock()
	ws := d.workers[req.Worker]
	if ws == nil {
		ws = &workerState{firstSeen: now}
		d.workers[req.Worker] = ws
	}
	ws.lastSeen = now
	ws.chunk = granted
	if req.EWMAUnitMS > 0 {
		ws.ewmaMS = req.EWMAUnitMS
	}
	if len(req.Schedulers) > 0 {
		ws.schedulers = append([]string(nil), req.Schedulers...)
		sort.Strings(ws.schedulers)
	} else {
		ws.schedulers = nil
	}
	var adv map[string]bool
	if ws.schedulers != nil {
		adv = make(map[string]bool, len(ws.schedulers))
		for _, s := range ws.schedulers {
			adv[s] = true
		}
	}
	covered := make(map[string]bool)
	live := workerLiveness(d.ttl)
	//dms:orderok set union over live advertisements: insertion order is irrelevant
	for _, w := range d.workers {
		if now.Sub(w.lastSeen) > live {
			continue
		}
		for _, s := range w.schedulers {
			covered[s] = true
		}
	}
	d.mu.Unlock()
	if adv == nil {
		return nil // wildcard worker: plain unfiltered lease
	}
	return func(t jobs.Task) bool {
		s := t.Payload.(*unit).job.Scheduler
		if s == "" || adv[s] {
			return true
		}
		// Fallback: a scheduler no live worker advertises must not
		// strand its units — anyone may take them.
		return !covered[s]
	}
}

// lease hands the calling worker a chunk of units, long-polling up to
// wait when the queue is empty. The chunk size is the worker's own
// request (self-scheduling workers size it from their service-time
// EWMA and the reported backlog), clamped to DefaultLeaseChunkMax; a
// request that names no size gets DefaultLeaseChunk. The tick that
// re-arms the wait also drives lease expiry, so requeued units of a
// crashed worker become leasable without separate traffic.
func (d *dispatcher) lease(ctx context.Context, req api.LeaseRequest, wait time.Duration) api.Lease {
	max := req.MaxUnits
	if max <= 0 {
		max = DefaultLeaseChunk
	}
	if max > DefaultLeaseChunkMax {
		max = DefaultLeaseChunkMax
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	eligible := d.noteWorker(req, max)
	deadline := time.Now().Add(wait)
	empty := api.Lease{PollMS: int(DefaultWorkerPoll / time.Millisecond)}
	for {
		d.q.Expire(time.Now())
		ch := d.q.Changed()
		id, tasks := d.q.LeaseFiltered(req.Worker, max, d.ttl, eligible)
		if len(tasks) > 0 {
			claimed := claim(tasks)
			units := make([]api.WorkUnit, len(claimed))
			for i, u := range claimed {
				units[i] = u.wireForm()
			}
			// Remaining reports the backlog left after this lease was
			// carved out: the input to the worker's next chunk decision.
			remaining := d.q.Stats().Pending
			return api.Lease{ID: id, Units: units, TTLMS: int(d.ttl / time.Millisecond), Remaining: remaining}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return empty
		}
		tick := 250 * time.Millisecond
		if tick > remaining {
			tick = remaining
		}
		timer := time.NewTimer(tick)
		select {
		case <-ch:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return empty
		case <-d.stop:
			timer.Stop()
			return empty
		}
		timer.Stop()
	}
}

// postResults applies one worker post — a batch of zero or more unit
// results under a live lease; an empty post is a pure heartbeat. The
// queue ack is the claim: the posted units are acked in one batch
// before anything is settled, and only the results the lease could
// ack are settled, each exactly once. A result raced by expiry and a
// re-lease, or naming a unit another lease holds, is discarded, never
// appended. The units, and the worker the gauges credit, are read from
// the queue's own record of the lease (jobs.Queue.Held). Acked first,
// a unit's result record in its segment is what then makes it
// resolved across a restart. It returns errLeaseExpired when the lease
// itself is no longer honored. The response lists the lease's
// still-held units whose batch has been canceled, so the worker skips
// them. local marks a post by an in-process puller: CompileRecord
// already stored its result in the dispatcher's cache, and it feeds no
// worker gauge; a remote worker's results are stored here.
func (d *dispatcher) postResults(lease string, results []api.UnitResult, local bool) (*api.WorkResultsResponse, error) {
	if !d.q.Heartbeat(lease) {
		return nil, errLeaseExpired
	}
	owner, held := d.q.Held(lease)
	resp := &api.WorkResultsResponse{}
	var done []resolvedUnit
	if len(results) > 0 {
		ids := make([]string, len(results))
		for i, ur := range results {
			ids[i] = ur.Unit
		}
		for i, ok := range d.q.AckBatch(lease, ids) {
			if !ok {
				continue
			}
			// A task the lease acked was among those it held: a lease
			// never gains tasks after it is granted.
			k := slices.IndexFunc(held, func(t jobs.Task) bool { return t.ID == ids[i] })
			done = append(done, resolvedUnit{held[k].Payload.(*unit), results[i].Result})
			held = slices.Delete(held, k, k+1)
		}
		resp.Acked = len(done)
		d.resolved.Add(uint64(len(done)))
		if !local && len(done) > 0 {
			d.credit(owner, done)
		}
		d.resolve(done, local)
	}
	for _, t := range held {
		u := t.Payload.(*unit)
		u.batch.mu.Lock()
		closed := u.batch.closed
		u.batch.mu.Unlock()
		if closed {
			resp.Canceled = append(resp.Canceled, u.id)
		}
	}
	return resp, nil
}

// credit attributes the units a worker resolved to its gauge row, if
// the row has not been pruned.
func (d *dispatcher) credit(worker string, done []resolvedUnit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ws := d.workers[worker]
	if ws == nil {
		return
	}
	ws.lastSeen = time.Now()
	for _, r := range done {
		ws.resolved++
		if r.rec.Cached {
			ws.cached++
		}
	}
}

// resolvedUnit is one unit a results post resolved, with its result.
type resolvedUnit struct {
	u   *unit
	rec api.JobResult
}

// resolve feeds authoritative unit results back to their batches,
// memoizing successes in the coordinator cache (stored shorn of Index
// and Cached, like CompileRecord stores them) unless stored says they
// are there already. The results of each batch settle together, in
// post order.
func (d *dispatcher) resolve(done []resolvedUnit, stored bool) {
	type batchOutcomes struct {
		b    *dispatchBatch
		outs []outcome
	}
	var byBatch []batchOutcomes // a post spans few batches
	for _, r := range done {
		u, rec := r.u, r.rec
		if rec.Error == "" && !stored {
			entry := rec
			entry.Index = 0
			entry.Cached = false
			d.cache.Add(u.key, entry)
		}
		rec.Index = u.index
		k := slices.IndexFunc(byBatch, func(g batchOutcomes) bool { return g.b == u.batch })
		if k < 0 {
			k = len(byBatch)
			byBatch = append(byBatch, batchOutcomes{b: u.batch})
		}
		byBatch[k].outs = append(byBatch[k].outs, outcome{rec, u.job.Scheduler})
	}
	for _, g := range byBatch {
		d.settle(g.b, g.outs...)
	}
}

// outcome is one result record for a batch's job, with the scheduler
// that produced it.
type outcome struct {
	rec       api.JobResult
	scheduler string
}

// settle counts one pending unit of the batch as done per outcome,
// appending the records to the batch's job in one Append, and finishes
// the job when nothing is left pending. A closed batch, or one whose
// job's context has ended (canceled, or the engine closed), discards
// late results: a result drained by a cancellation is not a compile
// result.
func (d *dispatcher) settle(b *dispatchBatch, outs ...outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.ctx.Err() != nil {
		return
	}
	recs := make([]api.JobResult, len(outs))
	for i, o := range outs {
		d.observe(o.rec, o.scheduler)
		recs[i] = o.rec
	}
	b.job.Append(recs...)
	b.pending -= len(outs)
	if b.pending == 0 {
		b.closed = true
		b.start() // a batch served without a compile still runs, briefly
		b.job.Finish()
	}
}

// observe folds one result a job receives into the service counters.
func (d *dispatcher) observe(rec api.JobResult, scheduler string) {
	if rec.Error != "" {
		d.jobErrors.Add(1)
	}
	if scheduler == "portfolio" && rec.Error == "" && rec.Stats != nil {
		d.portfolio.record(rec.Stats)
	}
}

// Metrics snapshots the dispatcher in its wire form, including the
// per-worker gauge table built from lease traffic.
func (d *dispatcher) Metrics() api.DispatchMetrics {
	qs := d.q.Stats()
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var workers map[string]api.WorkerMetrics
	if len(d.workers) > 0 {
		workers = make(map[string]api.WorkerMetrics, len(d.workers))
		for id, ws := range d.workers { // map-to-map transfer keyed by the range key
			workers[id] = ws.wire(now)
		}
	}
	return api.DispatchMetrics{
		PendingUnits: qs.Pending,
		LeasedUnits:  qs.Leased,
		ActiveLeases: qs.Leases,
		Dispatched:   d.dispatched.Load(),
		Resolved:     d.resolved.Load(),
		Requeued:     qs.Requeued,
		Workers:      workers,
	}
}

// wireOptions maps driver options back onto the wire form — the exact
// inverse of driverOptions, so a unit round-trips through a worker
// with the same tuning the batch was admitted with.
func wireOptions(o driver.Options) api.Options {
	return api.Options{
		BudgetRatio:      o.BudgetRatio,
		MaxII:            o.MaxII,
		DisableChains:    o.DisableChains,
		OneDirectionOnly: o.OneDirectionOnly,
		RefinementPasses: o.RefinementPasses,
		LoadSlack:        o.LoadSlack,
	}
}
