// Package worker is the pull loop of a distributed compile worker: a
// process that leases chunks of compile units from a coordinator
// (internal/server with Distribute set, or dmsserve -role
// coordinator), schedules them on the local driver through a local
// content-addressed cache, and posts the results back.
//
// The protocol is the repro/api/v1 worker-pull surface:
//
//	POST /v1/workers/lease           — lease a self-sized chunk of
//	                                   units, routed by content hash so
//	                                   loops this worker compiled
//	                                   before come back to its warm
//	                                   cache; the request advertises
//	                                   the worker's schedulers and its
//	                                   service-time EWMA
//	POST /v1/workers/{lease}/results — append a batch of results;
//	                                   every post (and the idle-lease
//	                                   heartbeat ticker) extends the
//	                                   lease's deadline
//
// The worker self-schedules its chunk size: per-unit service times
// feed one EWMA (see chunkCalc), and each lease request asks for the
// units that fit the target lease time at the observed rate, bounded
// by half the coordinator-reported backlog. Each lease has one poster
// goroutine, the only one that posts for it: completed results batch
// into flush-window posts instead of one round trip per unit, and
// heartbeat ticks keep a slow lease alive.
//
// Crash safety is the coordinator's lease expiry: a worker that stops
// posting — killed, partitioned, wedged — loses its lease and the
// unresolved units return to the queue for the remaining workers. A
// worker that learns its lease expired (410 lease_expired) drops the
// remaining work immediately instead of computing results nobody will
// accept. Results are exactly-once end to end because only a
// successful coordinator-side Ack resolves a unit.
//
// The loop reuses the pkg/dmsclient transport (connection pooling,
// protocol handshake, structured errors) and the server's compile
// path (server.CompileRecord over a server.Cache), so a unit compiles
// byte-identically wherever it lands.
package worker

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"os"
	"runtime"
	"sync"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/server"
	"repro/pkg/dmsclient"
)

// Pull-loop defaults.
const (
	// DefaultWait is the long-poll budget sent with lease requests.
	DefaultWait    = 2 * time.Second
	DefaultBackoff = 250 * time.Millisecond
	maxBackoff     = 5 * time.Second
	// DefaultPostWindow is the result-batching flush window: completed
	// unit results accumulate for up to this long before going out as
	// one results[] post. Long enough to coalesce a burst of cheap
	// units into one round trip, short enough that the coordinator's
	// emit stream stays visibly live.
	DefaultPostWindow = 25 * time.Millisecond
)

// Options configure a worker.
type Options struct {
	// Coordinator is the coordinator's base URL (ignored when Client
	// is set).
	Coordinator string
	// ID is the worker's stable identity — the affinity key identical
	// loops are routed by. "" derives one from the hostname plus a
	// random suffix.
	ID string
	// Chunk is the units requested per lease before the worker's
	// service-time EWMA has warmed up (0 = the coordinator's default).
	// Once warm, the worker sizes its own requests from the EWMA and
	// the coordinator-reported backlog.
	Chunk int
	// ChunkTarget is the wall-clock one self-sized chunk should take
	// to drain (0 = DefaultChunkTarget); smaller chunks adapt faster
	// and shrink the tail a slow worker can hold, larger ones amortize
	// more lease round trips.
	ChunkTarget time.Duration
	// Schedulers advertises the scheduler names this worker accepts;
	// the coordinator routes units it cannot run to other workers
	// (nil = everything the Registry resolves).
	Schedulers []string
	// UnitDelay stalls each unit's compile by this much — a test and
	// benchmark hook for modeling slow workers (see DMS_UNIT_DELAY in
	// cmd/dmsserve).
	UnitDelay time.Duration
	// Parallelism is the worker pool compiling a chunk
	// (0 = GOMAXPROCS).
	Parallelism int
	// CacheSize bounds the local schedule cache
	// (0 = server.DefaultCacheSize).
	CacheSize int
	// Registry resolves scheduler names (nil = driver.Default).
	Registry *driver.Registry
	// Client substitutes the coordinator client (tests); nil dials
	// Coordinator.
	Client *dmsclient.Client
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) id() string {
	if o.ID != "" {
		return o.ID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	var b [4]byte
	rand.Read(b[:]) // never fails: an entropy error crashes the program instead
	return host + "-" + hex.EncodeToString(b[:])
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) registry() *driver.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return driver.Default
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Run pulls and compiles work until ctx ends, returning ctx's error.
// Transport failures back off exponentially and never abort the loop —
// a worker outlives coordinator restarts.
func (w Options) run(ctx context.Context) error {
	cli := w.Client
	if cli == nil {
		cli = dmsclient.New(w.Coordinator)
	}
	id := w.id()
	cache := server.NewCache(w.CacheSize)
	schedulers := normalizeSchedulers(w.Schedulers)
	if schedulers == nil {
		schedulers = normalizeSchedulers(w.registry().Names())
	}
	calc := newChunkCalc(w.Chunk, w.parallelism(), w.ChunkTarget)
	remaining := -1 // backlog after the last lease; negative = unknown
	w.logf("worker %s pulling from %s", id, w.Coordinator)
	backoff := DefaultBackoff
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lease, err := cli.LeaseWork(ctx, api.LeaseRequest{
			Worker:     id,
			MaxUnits:   calc.Next(remaining),
			WaitMS:     int(DefaultWait / time.Millisecond),
			Schedulers: schedulers,
			EWMAUnitMS: calc.EWMA(),
		})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("worker %s: lease: %v (retrying in %v)", id, err, backoff)
			if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = DefaultBackoff
		if lease.ID == "" || len(lease.Units) == 0 {
			remaining = -1 // an empty lease carries no backlog signal
			poll := time.Duration(lease.PollMS) * time.Millisecond
			if poll <= 0 {
				poll = server.DefaultWorkerPoll
			}
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		remaining = lease.Remaining
		w.runLease(ctx, cli, cache, id, lease, calc)
	}
}

// Run pulls and compiles work until ctx ends, returning ctx's error.
func Run(ctx context.Context, opt Options) error { return opt.run(ctx) }

// runLease compiles one leased, non-empty chunk. The compile
// goroutines hand each result to the lease's one poster goroutine,
// the only caller of PushWorkResults for it, over a channel buffered
// to the chunk, so a compile never waits on a post in flight. Results
// accumulate for up to DefaultPostWindow after the first one arrives
// and then go out as one results[] post; a heartbeat tick (a third of
// the lease TTL) flushes early, or posts a pure heartbeat when nothing
// is buffered, so a unit that outlasts the TTL keeps its lease. The
// lease's last result goes out in one final post and the poster
// returns: the coordinator forgets a lease the moment its final unit
// is acked, and no heartbeat can follow that post into a spurious 410
// lease_expired. A 410 cancels the lease context, which stops the
// poster and the compiles, so the worker burns no cycles on work that
// has been requeued elsewhere; a unit is skipped only once that
// context has ended. Completed units feed calc's service-time EWMA.
func (w Options) runLease(ctx context.Context, cli *dmsclient.Client, cache *server.Cache, id string, lease *api.Lease, calc *chunkCalc) {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var canceled sync.Map // unit IDs the coordinator listed as canceled
	// A slot per unit, so no send blocks.
	results := make(chan api.UnitResult, len(lease.Units))
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		post := func(batch []api.UnitResult) {
			resp, err := cli.PushWorkResults(leaseCtx, lease.ID, batch)
			var apiErr *api.Error
			switch {
			case errors.As(err, &apiErr) && apiErr.Code == api.CodeLeaseExpired:
				w.logf("worker %s: lease %s expired; dropping its remaining units", id, lease.ID)
				cancel()
			case err == nil:
				for _, uid := range resp.Canceled {
					canceled.Store(uid, true)
				}
			}
		}
		tick := time.NewTicker(max(time.Duration(lease.TTLMS)*time.Millisecond/3, 50*time.Millisecond))
		defer tick.Stop()
		var buf []api.UnitResult
		var window <-chan time.Time // armed by the first buffered result
		flush := func() {
			post(buf) // with nothing buffered, a pure heartbeat
			buf, window = nil, nil
		}
		for left := len(lease.Units); ; {
			select {
			case r := <-results:
				buf = append(buf, r)
				if left--; left == 0 {
					post(buf)
					return
				}
				if window == nil {
					window = time.After(DefaultPostWindow)
				}
			case <-window:
				flush()
			case <-tick.C:
				flush()
			case <-leaseCtx.Done():
				return
			}
		}
	}()

	// Assembled and keyed up front, on this goroutine: the lease's
	// units share one keyer, which the fan-out below must not share.
	leased := server.LeaseJobs(lease.Units)
	driver.ForEach(len(lease.Units), w.Parallelism, func(i int) {
		if leaseCtx.Err() != nil {
			return // lease dead or shutting down: expiry requeues the rest
		}
		u := lease.Units[i]
		var rec api.JobResult
		if _, ok := canceled.Load(u.ID); ok {
			// The batch is gone; a cheap canceled record releases the
			// unit from the queue without scheduling anything. It does
			// not feed the EWMA — it measured nothing.
			rec = api.JobResult{Job: u.Scheduler, Error: "canceled by coordinator", ErrorCode: api.CodeCanceled}
		} else {
			start := time.Now()
			if w.UnitDelay > 0 {
				sleepCtx(leaseCtx, w.UnitDelay)
			}
			rec = w.compileUnit(leaseCtx, cache, u, leased[i])
			if leaseCtx.Err() == nil {
				calc.Observe(time.Since(start))
			}
		}
		if leaseCtx.Err() != nil {
			return
		}
		results <- api.UnitResult{Unit: u.ID, Result: rec}
	})
	<-posted
}

// compileUnit schedules one assembled wire unit through the local
// cache — the same CompileRecord path the coordinator's in-process
// pullers use.
func (w Options) compileUnit(ctx context.Context, cache *server.Cache, u api.WorkUnit, lj server.LeasedJob) api.JobResult {
	if lj.Err != nil {
		return api.JobResult{Error: lj.Err.Error(), ErrorCode: api.CodeInternal}
	}
	return server.CompileRecord(ctx, cache, lj.Key, lj.Job, driver.BatchOptions{
		Timeout:   time.Duration(u.TimeoutMS) * time.Millisecond,
		Latencies: &lj.Job.Machine.Lat,
		Registry:  w.Registry,
	}, u.NoCache)
}

// sleepCtx sleeps for d unless ctx ends first, reporting whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
