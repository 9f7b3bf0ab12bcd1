package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/loop"
)

// Defaults for the worker-pull dispatcher.
const (
	// DefaultLeaseTTL is the heartbeat deadline of a worker lease: a
	// lease that posts nothing for this long has its unresolved units
	// returned to the queue.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultLeaseChunk is the units handed out to a lease request that
	// names no size of its own (MaxUnits 0) — the warm-up size before a
	// self-scheduling worker's chunk calculator has observations.
	DefaultLeaseChunk = 8
	// DefaultLeaseChunkMax caps the units handed out per lease no
	// matter how many the worker asks for: the requeue cost of a lost
	// lease (and the coordinator's exposure to one slow worker hoarding
	// the queue) stays bounded.
	DefaultLeaseChunkMax = 256
	// DefaultLeaseTTLExact is the stretched heartbeat deadline applied
	// to leases carrying exact or portfolio units: an exhaustive SAT
	// search can legitimately run past the default TTL without posting
	// anything, and expiring it mid-solve just computes the proof twice.
	DefaultLeaseTTLExact = 60 * time.Second
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
// with work stealing (see jobs.Queue) — and routes the results back
// into each batch's emit stream. A unit is resolved exactly once (see
// postResults): a result raced by a lease expiry is never
// double-emitted.
type dispatcher struct {
	q        jobs.Queue
	cache    *Cache
	registry *driver.Registry // back-ends of the in-process pullers
	pullers  int              // in-process pullers; 0 leaves every unit to workers
	perBatch int32            // pullers one batch may hold at once
	ttl      time.Duration
	ttlExact time.Duration // TTL for leases carrying exact/portfolio units
	chunk    int           // hand-out size for requests that name none
	chunkMax int           // hard cap on any hand-out
	poll     time.Duration

	mu         sync.Mutex
	units      map[string]*unit        // live (pending or leased) units by ID
	leases     map[string]*leaseState  // lease → units handed out under it
	workers    map[string]*workerState // per-worker dispatch gauges, keyed by worker ID
	dispatched uint64
	resolved   uint64

	batchSeq atomic.Uint64
	shutdown atomic.Bool // process exiting: keep canceled units durable

	// root parents the contexts of recovered batches, which pullers may
	// compile before an executor attaches the batch's own context.
	root       context.Context
	cancelRoot context.CancelFunc
	stop       chan struct{}
	wg         sync.WaitGroup
}

// leaseState records what one live lease holds and which worker holds
// it, so a results post can be attributed back to the worker's gauges.
type leaseState struct {
	worker string
	units  []string // unit IDs handed out under this lease
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

	wireOnce sync.Once
	wire     api.WorkUnit // see wireForm
}

// wireForm returns the unit's self-contained wire form, rendering it
// on first use: only a unit that crosses a process boundary — a WAL
// enqueue frame or a remote lease — ever needs one, and it is
// rendered at most once.
func (u *unit) wireForm() api.WorkUnit {
	u.wireOnce.Do(func() { u.wire = wireUnit(u) })
	return u.wire
}

// dispatchBatch tracks one batch's outstanding units. closed flips
// when the batch ends (all units resolved, or its context canceled);
// results arriving afterwards are discarded. ctx is what in-process
// pullers compile the batch's units under. A batch recovered after a
// restart exists before its run closure does: results that land in
// that window buffer in backlog and flush when the executor attaches
// the emit stream.
type dispatchBatch struct {
	ctx     context.Context
	pulling atomic.Int32 // units in-process pullers hold
	mu      sync.Mutex
	closed  bool
	pending int
	emit    func(api.JobResult)
	backlog []api.JobResult // results resolved before emit attached
	done    chan struct{}
}

func newDispatcher(cache *Cache, q jobs.Queue, opt Options) *dispatcher {
	if q == nil {
		q = jobs.NewMemQueue(0) // admission is bounded per batch upstream
	}
	ttl, ttlExact, chunk, chunkMax, poll := opt.LeaseTTL, opt.LeaseTTLExact, opt.LeaseChunk, opt.LeaseChunkMax, opt.WorkerPoll
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if ttlExact <= 0 {
		ttlExact = DefaultLeaseTTLExact
	}
	if ttlExact < ttl {
		ttlExact = ttl // the exact TTL only ever stretches the deadline
	}
	if chunk <= 0 {
		chunk = DefaultLeaseChunk
	}
	if chunkMax <= 0 {
		chunkMax = DefaultLeaseChunkMax
	}
	if chunkMax < chunk {
		chunkMax = chunk // the cap never undercuts the default hand-out
	}
	if poll <= 0 {
		poll = DefaultWorkerPoll
	}
	workers, par := opt.QueueWorkers, opt.Parallelism
	if workers <= 0 {
		workers = jobs.DefaultWorkers
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	pullers := workers * par
	if opt.Distribute {
		pullers = 0 // every unit goes to remote workers
	}
	d := &dispatcher{
		q:        q,
		cache:    cache,
		registry: opt.Registry,
		pullers:  pullers,
		perBatch: int32(par),
		ttl:      ttl,
		ttlExact: ttlExact,
		chunk:    chunk,
		chunkMax: chunkMax,
		poll:     poll,
		units:    make(map[string]*unit),
		leases:   make(map[string]*leaseState),
		workers:  make(map[string]*workerState),
		stop:     make(chan struct{}),
	}
	//dms:ctxok dispatcher root: recovered batches compile before any request context exists
	d.root, d.cancelRoot = context.WithCancel(context.Background())
	d.wg.Add(1)
	go d.janitor()
	return d
}

// startPullers launches the in-process puller pool, after durable
// recovery, so no puller leases a replayed unit its batch has not
// adopted yet.
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
// batch holds at most about perBatch pullers, as many workers as it
// had of its own before, so side-by-side batches share the pool rather
// than the oldest taking all of it. Once shutdown begins a puller
// resolves nothing, leaving its units on the durable queue.
func (d *dispatcher) pull() {
	defer d.wg.Done()
	// The count is read here and raised after the lease, so concurrent
	// leases may overshoot the cap briefly; it is a share, not a bound.
	underCap := func(t jobs.Task) bool {
		u, ok := t.Payload.(*unit) // a replayed task carries its wire form
		return !ok || u.batch.pulling.Load() < d.perBatch
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
		units := d.claim(lease, tasks)
		if len(units) == 0 {
			continue // an orphan, acked off the queue
		}
		u := units[0]
		u.batch.pulling.Add(1)
		rec := CompileRecord(u.batch.ctx, d.cache, u.key, u.job, driver.BatchOptions{
			Timeout:   u.timeout,
			Latencies: &u.job.Machine.Lat,
			Registry:  d.registry,
		}, u.noCache)
		if d.shutdown.Load() {
			return
		}
		d.postResults(lease, []api.UnitResult{{Unit: u.id, Result: rec}})
		u.batch.pulling.Add(-1)
	}
}

// claim resolves a lease's tasks to the dispatcher's live units. A
// task replayed from the durable queue carries its wire form, so the
// authoritative *unit (with its batch binding) is the adopted one
// under d.units; a task no batch owns (its job was lost in recovery)
// is acked off the queue for good.
func (d *dispatcher) claim(lease string, tasks []jobs.Task) []*unit {
	units := make([]*unit, 0, len(tasks))
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range tasks {
		u, live := d.units[t.ID]
		if !live {
			d.q.Ack(lease, t.ID)
			continue
		}
		units = append(units, u)
	}
	return units
}

// janitor sweeps overdue leases while no worker traffic is driving the
// lazy expiry, so a crashed worker's units requeue even on an
// otherwise idle coordinator, and prunes resolved units out of the
// lease index.
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
			//dms:orderok janitor prune: each lease entry is filtered independently
			for id, ls := range d.leases {
				kept := ls.units[:0]
				for _, uid := range ls.units {
					if _, live := d.units[uid]; live {
						kept = append(kept, uid)
					}
				}
				if len(kept) == 0 {
					delete(d.leases, id)
				} else {
					ls.units = kept
				}
			}
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

// Close stops the janitor and the pullers, aborting what the pullers
// still compile for recovered batches; in-flight RunBatch calls are
// ended by their own contexts (the engine cancels them on shutdown).
func (d *dispatcher) Close() {
	close(d.stop)
	d.cancelRoot()
	d.wg.Wait()
}

// RunBatch is the run closure body of every batch: it resolves cache
// hits immediately, queues the rest as leasable units, and blocks
// until every unit has a result or ctx ends (canceling the batch and
// withdrawing its pending units). emit observes one record stream
// whoever compiles the units: completion order, Index set, Cached
// marking cache hits.
func (d *dispatcher) RunBatch(ctx context.Context, jobList []driver.Job, timeout time.Duration, noCache bool, emit func(api.JobResult)) {
	// Each unit is queued as soon as it is keyed, so compiles start
	// while the rest of the batch is still being keyed; the loop holds
	// one extra pending count until it is done, so units resolving
	// meanwhile cannot close the batch early.
	b := &dispatchBatch{ctx: ctx, emit: emit, pending: len(jobList) + 1, done: make(chan struct{})}
	// Units are keyed by the engine job ID so that durable queue state
	// written under one process re-attaches to the same job resource in
	// the next; callers outside an executor (tests) fall back to a
	// process-local sequence.
	batchID := jobs.JobID(ctx)
	if batchID == "" {
		batchID = fmt.Sprintf("b%d", d.batchSeq.Add(1))
	}
	// Content-hash routing steers identical units to a remote worker's
	// warm cache; in-process pullers share one cache, so their units go
	// unrouted, in plain FIFO order.
	route := d.pullers == 0
	var enq []*unit
	for i, job := range jobList {
		key := JobKey(job)
		if !noCache {
			// A puller resolves a miss through Cache.Do, which counts
			// it; with no pullers the miss is counted here.
			if v, ok := d.cache.lookup(key, d.pullers == 0); ok {
				rec := v.(api.JobResult)
				rec.Index = i
				rec.Cached = true
				b.settle(&rec)
				continue
			}
		}
		u := &unit{
			id:      batchID + "/" + strconv.Itoa(i),
			key:     key,
			job:     job,
			timeout: timeout,
			noCache: noCache,
			batch:   b,
			index:   i,
		}
		enq = append(enq, u)
		d.mu.Lock()
		d.units[u.id] = u
		d.dispatched++
		d.mu.Unlock()
		t := jobs.Task{ID: u.id, Payload: u}
		if route {
			t.Hash = key
		}
		// The unit queue is unbounded — admission control already
		// happened at the batch queue — so Enqueue cannot fail here.
		if err := d.q.Enqueue(t); err != nil {
			panic(fmt.Sprintf("server: unit enqueue failed: %v", err))
		}
	}
	b.settle(nil)
	select {
	case <-b.done:
	case <-ctx.Done():
		d.cancelBatch(b, enq)
	}
}

// cancelBatch closes the batch (discarding any later results) and
// withdraws its still-pending units from the queue. Units a worker
// already holds are released when their results arrive — discarded,
// acked off the queue — or by lease expiry; the worker learns they are
// moot from the Canceled list of its next results post.
//
// During process shutdown the withdraw is skipped: the engine cancels
// every running batch on Close, but those units are not abandoned work
// — on a durable queue they are exactly the state the next process
// must recover, and withdrawing would erase them from the WAL.
func (d *dispatcher) cancelBatch(b *dispatchBatch, units []*unit) {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	if d.shutdown.Load() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, u := range units {
		if d.q.Withdraw(u.id) {
			delete(d.units, u.id)
			d.resolved++
		}
	}
}

// noteWorker records the lease request into the worker's dispatch
// table row and returns the eligibility predicate routing should apply
// for it: nil when the worker takes anything (no advertisement), else
// a closure over a snapshot of the advertisement and the fleet's
// current coverage — deliberately lock-free, because the queue invokes
// it under its own lock and the dispatcher's lock order is d.mu before
// q.mu.
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
		s := taskScheduler(t.Payload)
		if s == "" || adv[s] {
			return true
		}
		// Fallback: a scheduler no live worker advertises must not
		// strand its units — anyone may take them.
		return !covered[s]
	}
}

// taskScheduler extracts the scheduler name of a queued unit without
// taking any lock: a live task's payload is the *unit the dispatcher
// enqueued; a task replayed from the durable queue carries its wire
// form until adoption swaps the payload back.
func taskScheduler(payload any) string {
	switch p := payload.(type) {
	case *unit:
		return p.job.Scheduler
	case api.WorkUnit:
		return p.Scheduler
	}
	return ""
}

// lease hands the calling worker a chunk of units, long-polling up to
// wait when the queue is empty. The chunk size is the worker's own
// request (self-scheduling workers size it from their service-time
// EWMA and the reported backlog), clamped to [1, chunkMax]; a request
// that names no size gets the warm-up default. The tick that re-arms
// the wait also drives lease expiry, so requeued units of a crashed
// worker become leasable without separate traffic.
func (d *dispatcher) lease(ctx context.Context, req api.LeaseRequest, wait time.Duration) api.Lease {
	max := req.MaxUnits
	if max <= 0 {
		max = d.chunk
	}
	if max > d.chunkMax {
		max = d.chunkMax
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	eligible := d.noteWorker(req, max)
	deadline := time.Now().Add(wait)
	empty := api.Lease{PollMS: int(d.poll / time.Millisecond)}
	for {
		d.q.Expire(time.Now())
		ch := d.q.Changed()
		id, tasks := d.q.LeaseFiltered(req.Worker, max, d.ttl, eligible)
		if len(tasks) > 0 {
			claimed := d.claim(id, tasks)
			if len(claimed) == 0 {
				continue
			}
			units := make([]api.WorkUnit, len(claimed))
			ids := make([]string, len(claimed))
			longRunning := false
			for i, u := range claimed {
				units[i] = u.wireForm()
				ids[i] = u.id
				if u.job.Scheduler == "exact" || u.job.Scheduler == "portfolio" {
					longRunning = true
				}
			}
			d.mu.Lock()
			d.leases[id] = &leaseState{worker: req.Worker, units: ids}
			d.mu.Unlock()
			ttl := d.ttl
			// Exact and portfolio units may run a SAT proof for the whole
			// lease duration without posting anything; stretch the
			// heartbeat deadline so the proof is not recomputed elsewhere.
			if longRunning && d.ttlExact > ttl && d.q.SetLeaseTTL(id, d.ttlExact) {
				ttl = d.ttlExact
			}
			// Remaining reports the backlog left after this lease was
			// carved out: the input to the worker's next chunk decision.
			remaining := d.q.Stats().Pending
			return api.Lease{ID: id, Units: units, TTLMS: int(ttl / time.Millisecond), Remaining: remaining}
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
// first result posted for a live unit resolves it (exactly once: the
// claim is removing the unit from d.units, so a result raced by expiry
// and a re-lease is discarded, never double-emitted), and only then
// are the units acked off the queue, in one batch (one WAL frame on a
// durable queue): a crash between the two leaves a result whose unit
// is still logged, which recovery settles, rather than a logged ack
// whose result was never stored. It returns errLeaseExpired when the
// lease itself is no longer honored. The response lists the lease's
// still-outstanding units whose batch has been canceled, so the worker
// skips them.
func (d *dispatcher) postResults(lease string, results []api.UnitResult) (*api.WorkResultsResponse, error) {
	if !d.q.Heartbeat(lease) {
		d.mu.Lock()
		delete(d.leases, lease)
		d.mu.Unlock()
		return nil, errLeaseExpired
	}
	resp := &api.WorkResultsResponse{}
	// One pass under d.mu claims every live unit and attributes it to
	// the posting worker's gauges; the batch resolution (cache adds and
	// emit calls) runs outside the lock in post order.
	type resolvedUnit struct {
		u   *unit
		rec api.JobResult
	}
	var done []resolvedUnit
	d.mu.Lock()
	var ws *workerState
	if ls := d.leases[lease]; ls != nil {
		ws = d.workers[ls.worker]
	}
	now := time.Now()
	ids := make([]string, len(results))
	for i, ur := range results {
		ids[i] = ur.Unit
		u := d.units[ur.Unit]
		delete(d.units, ur.Unit)
		if u == nil {
			continue
		}
		d.resolved++
		resp.Acked++
		if ws != nil {
			ws.lastSeen = now
			ws.resolved++
			if ur.Result.Cached {
				ws.cached++
			}
		}
		done = append(done, resolvedUnit{u, ur.Result})
	}
	d.mu.Unlock()
	for _, r := range done {
		d.resolve(r.u, r.rec)
	}
	if len(ids) > 0 {
		d.q.AckBatch(lease, ids)
	}
	d.mu.Lock()
	if ls := d.leases[lease]; ls != nil {
		kept := ls.units[:0]
		for _, uid := range ls.units {
			u, live := d.units[uid]
			if !live {
				continue
			}
			kept = append(kept, uid)
			u.batch.mu.Lock() //dms:lockok established lock order: dispatcher.mu before batch.mu
			closed := u.batch.closed
			u.batch.mu.Unlock()
			if closed {
				resp.Canceled = append(resp.Canceled, uid)
			}
		}
		if len(kept) == 0 {
			delete(d.leases, lease)
		} else {
			ls.units = kept
		}
	}
	d.mu.Unlock()
	return resp, nil
}

// resolve feeds one authoritative unit result back to its batch,
// memoizing successes in the coordinator cache (stored shorn of Index
// and Cached, like the in-process path stores them).
func (d *dispatcher) resolve(u *unit, rec api.JobResult) {
	if rec.Error == "" {
		stored := rec
		stored.Index = 0
		stored.Cached = false
		d.cache.Add(u.key, stored)
	}
	rec.Index = u.index
	u.batch.settle(&rec)
}

// settle counts one pending unit of the batch as done, first emitting
// rec when there is one — into the backlog while no emit is attached
// — and closes the batch when nothing is left pending. A closed batch
// discards late results.
func (b *dispatchBatch) settle(rec *api.JobResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if rec != nil && b.emit == nil {
		b.backlog = append(b.backlog, *rec)
	} else if rec != nil {
		b.emit(*rec)
	}
	b.pending--
	if b.pending == 0 {
		b.closed = true
		close(b.done)
	}
}

// adoptedUnit is one compile unit reconstructed from the durable queue
// during recovery: its queue identity, its index within the original
// batch, and the wire form the previous process logged.
type adoptedUnit struct {
	ID    string
	Index int
	Wire  api.WorkUnit
}

// adopt rebinds recovered units to a fresh batch and returns the run
// closure that resumes it. The units are registered immediately — their
// tasks are already on the replayed queue, so a worker or puller may
// lease one before an executor picks the run up; results that land in
// that window buffer in the batch backlog and flush when emit attaches.
// The batch compiles under a context of its own, canceled when the run
// ends (or the dispatcher closes). A unit whose wire form no longer
// parses is withdrawn and resolved as an error record, so the batch
// still reaches a terminal state.
func (d *dispatcher) adopt(unitList []adoptedUnit) jobs.RunFunc {
	ctx, cancel := context.WithCancel(d.root)
	b := &dispatchBatch{ctx: ctx, pending: len(unitList), done: make(chan struct{})}
	var live []*unit
	for _, au := range unitList {
		job, err := UnitJob(au.Wire)
		if err != nil {
			d.q.Withdraw(au.ID)
			b.settle(&api.JobResult{
				Index:     au.Index,
				Error:     fmt.Sprintf("recovered unit unusable: %v", err),
				ErrorCode: api.CodeInternal,
			})
			continue
		}
		u := &unit{
			id:      au.ID,
			key:     au.Wire.Hash,
			job:     job,
			timeout: time.Duration(au.Wire.TimeoutMS) * time.Millisecond,
			noCache: au.Wire.NoCache,
			batch:   b,
			index:   au.Index,
		}
		u.wireOnce.Do(func() { u.wire = au.Wire })
		live = append(live, u)
	}
	d.mu.Lock()
	for _, u := range live {
		d.units[u.id] = u
	}
	d.dispatched += uint64(len(unitList))
	d.resolved += uint64(len(unitList) - len(live))
	d.mu.Unlock()
	return func(ctx context.Context, emit func(api.JobResult)) {
		defer cancel()
		b.mu.Lock()
		for _, rec := range b.backlog {
			emit(rec)
		}
		b.backlog = nil
		b.emit = emit
		finished := b.closed
		b.mu.Unlock()
		if finished {
			return
		}
		select {
		case <-b.done:
		case <-ctx.Done():
			d.cancelBatch(b, live)
		}
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
		Dispatched:   d.dispatched,
		Resolved:     d.resolved,
		Requeued:     qs.Requeued,
		Workers:      workers,
	}
}

// wireUnit renders a unit in its self-contained wire form: canonical
// loop text, the full machine config, and the scheduler options.
func wireUnit(u *unit) api.WorkUnit {
	mj, err := json.Marshal(u.job.Machine)
	if err != nil {
		// Machine marshaling is infallible for valid machines (see Key).
		panic(fmt.Sprintf("server: machine %s failed to marshal: %v", u.job.Machine.Name, err))
	}
	return api.WorkUnit{
		ID:        u.id,
		Hash:      u.key,
		Loop:      loop.Format(u.job.Loop),
		Machine:   api.MachineSpec{Config: mj},
		Scheduler: u.job.Scheduler,
		Options:   wireOptions(u.job.Options),
		TimeoutMS: int(u.timeout / time.Millisecond),
		NoCache:   u.noCache,
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

// UnitJob assembles the in-process compile job of one wire unit. It is
// the worker-side counterpart of wireUnit and shares the server's
// machine/option conversions, so a unit compiles identically wherever
// it lands.
func UnitJob(u api.WorkUnit) (driver.Job, error) {
	l, err := loop.ParseString(u.Loop)
	if err != nil {
		return driver.Job{}, fmt.Errorf("unit %s: bad loop: %w", u.ID, err)
	}
	m, err := machineSpec(u.Machine).machine()
	if err != nil {
		return driver.Job{}, fmt.Errorf("unit %s: bad machine: %w", u.ID, err)
	}
	return driver.Job{Loop: l, Machine: m, Scheduler: u.Scheduler, Options: driverOptions(u.Options)}, nil
}
