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
// feed a cost-class-aware EWMA (see chunkCalc), and each lease
// request asks for the units that fit the target lease time at the
// observed rate, bounded by half the coordinator-reported backlog.
// Completed results batch into flush-window posts instead of one
// round trip per unit.
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
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/server"
	"repro/pkg/dmsclient"
)

// Defaults for Options.
const (
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
	// the coordinator-reported backlog — unless FixedChunk pins it.
	Chunk int
	// FixedChunk disables adaptive chunk sizing: every lease requests
	// exactly Chunk units, the pre-self-scheduling behavior.
	FixedChunk bool
	// PostWindow is the result-batching flush window: completed unit
	// results accumulate for up to this long (or until the lease
	// drains, whichever is first) before being posted as one results[]
	// batch (0 = DefaultPostWindow; negative = post every unit
	// immediately, the pre-batching behavior).
	PostWindow time.Duration
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
	// Wait is the long-poll budget sent with lease requests
	// (0 = DefaultWait).
	Wait time.Duration
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
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("worker: id entropy unavailable: %v", err))
	}
	return host + "-" + hex.EncodeToString(b[:])
}

func (o Options) wait() time.Duration {
	if o.Wait > 0 {
		return o.Wait
	}
	return DefaultWait
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) postWindow() time.Duration {
	if o.PostWindow < 0 {
		return -1 // per-unit posting
	}
	if o.PostWindow == 0 {
		return DefaultPostWindow
	}
	return o.PostWindow
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
		maxUnits := w.Chunk
		if !w.FixedChunk {
			maxUnits = calc.Next(remaining)
		}
		lease, err := cli.LeaseWork(ctx, api.LeaseRequest{
			Worker:     id,
			MaxUnits:   maxUnits,
			WaitMS:     int(w.wait() / time.Millisecond),
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

// runLease compiles one leased chunk, batching completed results into
// flush-window posts (each of which heartbeats the lease) plus an idle
// heartbeat ticker for units that outlast the TTL. The lease context
// is canceled the moment the coordinator reports the lease expired, so
// the worker stops burning cycles on work that has been requeued
// elsewhere. Completed units feed calc's service-time EWMA.
func (w Options) runLease(ctx context.Context, cli *dmsclient.Client, cache *server.Cache, id string, lease *api.Lease, calc *chunkCalc) {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	canceled := make(map[string]bool)
	merge := func(resp *api.WorkResultsResponse) {
		if resp == nil || len(resp.Canceled) == 0 {
			return
		}
		mu.Lock()
		for _, uid := range resp.Canceled {
			canceled[uid] = true
		}
		mu.Unlock()
	}
	isCanceled := func(uid string) bool {
		mu.Lock()
		defer mu.Unlock()
		return canceled[uid]
	}
	// post delivers one unit result (or, with "" unit, a pure
	// heartbeat), canceling the lease on lease_expired.
	post := func(results []api.UnitResult) {
		resp, err := cli.PushWorkResults(leaseCtx, lease.ID, results)
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Code == api.CodeLeaseExpired {
				w.logf("worker %s: lease %s expired; dropping its remaining units", id, lease.ID)
				cancel()
			}
			return
		}
		merge(resp)
	}

	// Unit results and idle heartbeats are serialized behind postMu
	// with a remaining-units counter, and the flush of the last unit
	// stops the heartbeat ticker before releasing the mutex. The
	// coordinator forgets a lease the moment its final unit is acked,
	// so a heartbeat racing (or following) that final post would draw a
	// spurious 410 lease_expired and cancel work that drained cleanly.
	//
	// Completed results accumulate in buf for up to the flush window
	// before going out as one results[] post; the lease boundary (last
	// unit) and the heartbeat ticker both force a flush, so nothing
	// buffered outlives either the lease or a TTL third.
	hbStop := make(chan struct{})
	var postMu sync.Mutex
	remaining := len(lease.Units)
	var buf []api.UnitResult
	var flushTimer *time.Timer
	window := w.postWindow()
	stopHeartbeatLocked := func() {
		select {
		case <-hbStop:
		default:
			close(hbStop)
		}
	}
	flushLocked := func() {
		if flushTimer != nil {
			flushTimer.Stop()
			flushTimer = nil
		}
		if len(buf) == 0 {
			return
		}
		batch := buf
		buf = nil
		post(batch)
	}
	postUnit := func(r api.UnitResult) {
		postMu.Lock()
		defer postMu.Unlock()
		remaining--
		if window < 0 {
			post([]api.UnitResult{r})
		} else {
			buf = append(buf, r)
			if remaining == 0 {
				flushLocked()
			} else if flushTimer == nil {
				flushTimer = time.AfterFunc(window, func() {
					postMu.Lock()
					defer postMu.Unlock()
					flushLocked()
				})
			}
		}
		if remaining == 0 {
			stopHeartbeatLocked()
		}
	}
	heartbeat := func() {
		postMu.Lock()
		defer postMu.Unlock()
		if remaining == 0 {
			return // lease already completed by its final unit result
		}
		if len(buf) > 0 {
			flushLocked() // a results flush is the stronger heartbeat
			return
		}
		post(nil)
	}

	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(lease.TTLMS) * time.Millisecond / 3
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				heartbeat()
			case <-hbStop:
				return
			case <-leaseCtx.Done():
				return
			}
		}
	}()

	driver.ForEach(len(lease.Units), w.Parallelism, func(i int) {
		if leaseCtx.Err() != nil {
			return // lease dead or shutting down: expiry requeues the rest
		}
		u := lease.Units[i]
		var rec api.JobResult
		if isCanceled(u.ID) {
			// The batch is gone; a cheap canceled record releases the
			// unit from the queue without scheduling anything. It does
			// not feed the EWMA — it measured nothing.
			rec = api.JobResult{Job: u.Scheduler, Error: "canceled by coordinator", ErrorCode: api.CodeCanceled}
		} else {
			start := time.Now()
			if w.UnitDelay > 0 {
				sleepCtx(leaseCtx, w.UnitDelay)
			}
			rec = w.compileUnit(leaseCtx, cache, u)
			if leaseCtx.Err() == nil {
				calc.Observe(u.Scheduler, time.Since(start))
			}
		}
		if leaseCtx.Err() != nil {
			return
		}
		postUnit(api.UnitResult{Unit: u.ID, Result: rec})
	})
	postMu.Lock()
	flushLocked()         // results buffered when the lease died post (and fail) harmlessly
	stopHeartbeatLocked() // units may have been skipped on a dead lease
	postMu.Unlock()
	hbWG.Wait()
}

// compileUnit schedules one wire unit through the local cache — the
// same CompileRecord path the coordinator's in-process pullers use.
func (w Options) compileUnit(ctx context.Context, cache *server.Cache, u api.WorkUnit) api.JobResult {
	job, err := server.UnitJob(u)
	if err != nil {
		return api.JobResult{Error: err.Error(), ErrorCode: api.CodeInternal}
	}
	return server.CompileRecord(ctx, cache, server.JobKey(job), job, driver.BatchOptions{
		Timeout:   time.Duration(u.TimeoutMS) * time.Millisecond,
		Latencies: &job.Machine.Lat,
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
