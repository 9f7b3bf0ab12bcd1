package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// restrictedRegistry builds a registry resolving only the named
// schedulers, borrowing their implementations from driver.Default.
func restrictedRegistry(t *testing.T, names ...string) *driver.Registry {
	t.Helper()
	reg := driver.NewRegistry()
	for _, name := range names {
		s, err := driver.Default.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		reg.MustRegister(s)
	}
	return reg
}

// fakeLeaseCoordinator serves one canned lease and then empty leases,
// recording every lease request and every results post.
type fakeLeaseCoordinator struct {
	t     *testing.T
	lease api.Lease
	// stallFirstPost delays the answer to the first results post.
	stallFirstPost time.Duration

	mu          sync.Mutex
	handed      bool
	leaseReqs   []api.LeaseRequest
	resultPosts [][]api.UnitResult
	resolved    map[string]bool
}

func (f *fakeLeaseCoordinator) handler() http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set(api.ProtocolHeader, api.Version)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathWorkersLease, func(w http.ResponseWriter, r *http.Request) {
		var req api.LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			f.t.Errorf("bad lease body: %v", err)
		}
		f.mu.Lock()
		f.leaseReqs = append(f.leaseReqs, req)
		first := !f.handed
		f.handed = true
		f.mu.Unlock()
		if first {
			writeJSON(w, f.lease)
			return
		}
		writeJSON(w, api.Lease{PollMS: 25})
	})
	mux.HandleFunc(api.WorkerResultsPath(f.lease.ID), func(w http.ResponseWriter, r *http.Request) {
		var req api.WorkResultsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			f.t.Errorf("bad results body: %v", err)
		}
		f.mu.Lock()
		if len(req.Results) > 0 {
			f.resultPosts = append(f.resultPosts, req.Results)
		}
		for _, ur := range req.Results {
			f.resolved[ur.Unit] = true
		}
		stall := len(req.Results) > 0 && len(f.resultPosts) == 1
		f.mu.Unlock()
		if stall {
			time.Sleep(f.stallFirstPost)
		}
		writeJSON(w, api.WorkResultsResponse{Acked: len(req.Results)})
	})
	return mux
}

func (f *fakeLeaseCoordinator) waitResolved(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		f.mu.Lock()
		done := len(f.resolved) == n
		f.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerBatchedResultPosts pins the tentpole's result path: a
// chunk of units drains in strictly fewer POSTs than units (completed
// results coalesce into flush-window batches), and the worker's
// follow-up lease requests carry its scheduler advertisement, its
// warmed-up EWMA, and a self-sized MaxUnits.
func TestWorkerBatchedResultPosts(t *testing.T) {
	loopText := goldenLoops(t)[0]
	const n = 6
	units := make([]api.WorkUnit, n)
	for i := range units {
		id := string(rune('a' + i))
		units[i] = api.WorkUnit{ID: id, Hash: id, Loop: loopText, Machine: api.MachineSpec{Clusters: 2}, Scheduler: "dms"}
	}
	fake := &fakeLeaseCoordinator{
		t:        t,
		lease:    api.Lease{ID: "lease-batch", Units: units, TTLMS: 60_000, Remaining: 40},
		resolved: map[string]bool{},
	}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)

	stop := startWorker(t, ts.URL, worker.Options{
		ID:          "batcher",
		Parallelism: 2,
		UnitDelay:   2 * time.Millisecond,
	})
	fake.waitResolved(t, n)
	// Let the worker issue at least one warm follow-up lease request.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fake.mu.Lock()
		warm := len(fake.leaseReqs) >= 2
		fake.mu.Unlock()
		if warm || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()

	fake.mu.Lock()
	defer fake.mu.Unlock()
	if got := len(fake.resultPosts); got < 1 || got >= n {
		t.Errorf("drained %d units in %d result posts, want batching (1..%d)", n, got, n-1)
	}
	total := 0
	for _, batch := range fake.resultPosts {
		total += len(batch)
	}
	if total != n {
		t.Errorf("posted %d results across batches, want %d", total, n)
	}
	first := fake.leaseReqs[0]
	if len(first.Schedulers) == 0 {
		t.Error("lease request carries no scheduler advertisement")
	}
	if first.EWMAUnitMS != 0 {
		t.Errorf("cold lease request self-reported EWMA %v, want 0", first.EWMAUnitMS)
	}
	if len(fake.leaseReqs) < 2 {
		t.Fatal("no follow-up lease request observed")
	}
	warm := fake.leaseReqs[len(fake.leaseReqs)-1]
	if warm.EWMAUnitMS <= 0 {
		t.Errorf("warm lease request self-reported EWMA %v, want > 0", warm.EWMAUnitMS)
	}
	if warm.MaxUnits < 1 {
		t.Errorf("warm lease request MaxUnits = %d, want a self-sized request", warm.MaxUnits)
	}
}

// TestWorkerCompilesDuringPost: a results post in flight never holds
// up the compiles. The fake coordinator stalls the first post for
// 300 ms while the remaining units, 20 ms each on one compile
// goroutine, all finish; the lease then drains in exactly one more
// post carrying every one of them. (The 60 s TTL keeps heartbeat ticks
// out of the window.)
func TestWorkerCompilesDuringPost(t *testing.T) {
	loopText := goldenLoops(t)[0]
	const n = 6
	units := make([]api.WorkUnit, n)
	for i := range units {
		id := string(rune('a' + i))
		units[i] = api.WorkUnit{ID: id, Hash: id, Loop: loopText, Machine: api.MachineSpec{Clusters: 2}, Scheduler: "dms"}
	}
	fake := &fakeLeaseCoordinator{
		t:              t,
		lease:          api.Lease{ID: "lease-stall", Units: units, TTLMS: 60_000},
		resolved:       map[string]bool{},
		stallFirstPost: 300 * time.Millisecond,
	}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)

	stop := startWorker(t, ts.URL, worker.Options{ID: "staller", Parallelism: 1, UnitDelay: 20 * time.Millisecond})
	fake.waitResolved(t, n)
	stop()

	fake.mu.Lock()
	defer fake.mu.Unlock()
	if got := len(fake.resultPosts); got != 2 {
		sizes := make([]int, got)
		for i, batch := range fake.resultPosts {
			sizes[i] = len(batch)
		}
		t.Fatalf("drained %d units in %d result posts of sizes %v, want 2: the compiles stalled behind the first post", n, got, sizes)
	}
	if first, second := len(fake.resultPosts[0]), len(fake.resultPosts[1]); first+second != n {
		t.Errorf("posts carried %d + %d results, want %d", first, second, n)
	}
}

// TestWorkerSchedulerRouting is the mixed-fleet regression for
// scheduler-aware routing: a worker that can only run dms advertises
// exactly that, the coordinator routes the twophase units to the
// fully-equipped worker, and the batch completes without an error —
// byte-identical to the direct path. Before advertisement, the
// restricted worker would lease twophase units and fail them.
func TestWorkerSchedulerRouting(t *testing.T) {
	svc, ts := newCoordinator(t, server.Options{})
	// The full worker must be known to the coordinator before the
	// restricted one leases: fleet coverage is built from observed
	// advertisements, and an uncovered scheduler falls back to any
	// worker (see TestWorkerRoutingFallback).
	startWorker(t, ts.URL, worker.Options{ID: "full"})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if dm := svc.Snapshot().Dispatch; dm != nil {
			if _, ok := dm.Workers["full"]; ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("full worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	startWorker(t, ts.URL, worker.Options{ID: "dms-only", Registry: restrictedRegistry(t, "dms")})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms", "twophase"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2)})
	njobs := req.Jobs()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	recs, sum, err := cli.CompileAll(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != njobs || sum.Errors != 0 {
		t.Fatalf("mixed-fleet summary = %+v, want %d jobs and 0 errors", sum, njobs)
	}
	compareRecords(t, recs, want)

	dm := svc.Snapshot().Dispatch
	if dm == nil || len(dm.Workers) != 2 {
		t.Fatalf("dispatch gauge table = %+v, want both workers", dm)
	}
	restricted, ok := dm.Workers["dms-only"]
	if !ok {
		t.Fatal("restricted worker missing from the gauge table")
	}
	if len(restricted.Schedulers) != 1 || restricted.Schedulers[0] != "dms" {
		t.Errorf("restricted advertisement in gauges = %v, want [dms]", restricted.Schedulers)
	}
}

// TestWorkerRoutingFallback pins the no-capable-worker fallback: when
// no live worker advertises a unit's scheduler, anyone may take it —
// the unit must not strand. The restricted worker here cannot run
// twophase, so the record comes back as an error, but the batch still
// reaches a terminal state with every unit resolved.
func TestWorkerRoutingFallback(t *testing.T) {
	_, ts := newCoordinator(t, server.Options{})
	startWorker(t, ts.URL, worker.Options{ID: "dms-only", Registry: restrictedRegistry(t, "dms"), Schedulers: []string{"dms"}})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"twophase"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	recs, sum, err := dmsclient.New(ts.URL).CompileAll(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 1 {
		t.Fatalf("summary = %+v, want the unit resolved", sum)
	}
	if len(recs) != 1 || recs[0].Error == "" {
		t.Fatalf("fallback record = %+v, want an unknown-scheduler error (resolved, not stranded)", recs)
	}
}

// recordingProxy wraps a coordinator handler, logging every lease
// request's MaxUnits by worker and counting results posts.
type recordingProxy struct {
	inner http.Handler

	mu          sync.Mutex
	leaseUnits  map[string][]int // worker → MaxUnits per lease request
	resultPosts int
}

func (p *recordingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == api.PathWorkersLease {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req api.LeaseRequest
			if json.Unmarshal(body, &req) == nil {
				p.mu.Lock()
				p.leaseUnits[req.Worker] = append(p.leaseUnits[req.Worker], req.MaxUnits)
				p.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	if r.Method == http.MethodPost && len(r.URL.Path) > len("/v1/workers/") && r.URL.Path[:len("/v1/workers/")] == "/v1/workers/" && r.URL.Path[len(r.URL.Path)-len("/results"):] == "/results" {
		p.mu.Lock()
		p.resultPosts++
		p.mu.Unlock()
	}
	p.inner.ServeHTTP(w, r)
}

// TestWorkerHeterogeneousFleet is the self-scheduling acceptance test:
// a fast worker and a 4×-slower one drain a 200-unit batch. The
// results are byte-identical to the direct path, the slow worker's
// steady-state chunk requests are strictly smaller than the fast
// worker's, the whole drain takes far fewer result POSTs than units,
// and the coordinator's per-worker gauges expose the asymmetry.
func TestWorkerHeterogeneousFleet(t *testing.T) {
	svc, err := server.Open(server.Options{Distribute: true})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &recordingProxy{inner: svc.Handler(), leaseUnits: map[string][]int{}}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)

	loops := perfect.CorpusN(perfect.DefaultSeed, 50)
	texts := make([]string, len(loops))
	for i, l := range loops {
		texts[i] = loop.Format(l)
	}
	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	njobs := req.Jobs() // 50 × 2 × 2 = 200

	const slowdown = 4
	baseDelay := 3 * time.Millisecond
	// The chunk target keeps both workers' rate-sized requests (about
	// 30 and 8 units) under the factoring cap of half the backlog for
	// most of the drain. With the default 1 s target both would hit
	// the cap, and the comparison would measure queue depth at request
	// time rather than the calculator's chunks.
	chunkTarget := 100 * time.Millisecond
	startWorker(t, ts.URL, worker.Options{ID: "fast", Parallelism: 1, UnitDelay: baseDelay, ChunkTarget: chunkTarget})
	startWorker(t, ts.URL, worker.Options{ID: "slow", Parallelism: 1, UnitDelay: slowdown * baseDelay, ChunkTarget: chunkTarget})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	recs, sum, err := dmsclient.New(ts.URL).CompileAll(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != njobs || sum.Errors != 0 {
		t.Fatalf("heterogeneous summary = %+v, want %d jobs", sum, njobs)
	}
	compareRecords(t, recs, want)

	proxy.mu.Lock()
	posts := proxy.resultPosts
	fastReqs := append([]int(nil), proxy.leaseUnits["fast"]...)
	slowReqs := append([]int(nil), proxy.leaseUnits["slow"]...)
	proxy.mu.Unlock()

	if posts >= njobs {
		t.Errorf("drain took %d result posts for %d units — batching bought nothing", posts, njobs)
	}
	// Steady state = the largest self-sized request each worker made
	// (warm-up requests ask for 0 = coordinator default).
	maxReq := func(reqs []int) int {
		m := 0
		for _, r := range reqs {
			if r > m {
				m = r
			}
		}
		return m
	}
	fastChunk, slowChunk := maxReq(fastReqs), maxReq(slowReqs)
	if fastChunk == 0 || slowChunk == 0 {
		t.Fatalf("no self-sized lease requests observed (fast %v, slow %v)", fastReqs, slowReqs)
	}
	if slowChunk >= fastChunk {
		t.Errorf("slow worker's steady-state chunk %d is not smaller than the fast worker's %d", slowChunk, fastChunk)
	}

	dm := svc.Snapshot().Dispatch
	fastG, okF := dm.Workers["fast"]
	slowG, okS := dm.Workers["slow"]
	if !okF || !okS {
		t.Fatalf("gauge table = %+v, want both workers", dm.Workers)
	}
	if slowG.EWMAUnitMS <= fastG.EWMAUnitMS {
		t.Errorf("gauges do not expose the asymmetry: slow EWMA %v <= fast EWMA %v", slowG.EWMAUnitMS, fastG.EWMAUnitMS)
	}
	if fastG.ResolvedUnits+slowG.ResolvedUnits != uint64(njobs) {
		t.Errorf("per-worker resolved gauges sum to %d, want %d", fastG.ResolvedUnits+slowG.ResolvedUnits, njobs)
	}
	if fastG.CurrentChunk <= 0 || slowG.CurrentChunk <= 0 {
		t.Errorf("current_chunk gauges = %d/%d, want positive", fastG.CurrentChunk, slowG.CurrentChunk)
	}
}
