package worker_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// goldenLoops reads the checked-in loop corpus, so the distributed
// path is exercised on exactly the loops whose schedules the rest of
// the suite pins down.
func goldenLoops(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("..", "loop", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, string(data))
	}
	if len(texts) == 0 {
		t.Fatal("no golden loops found")
	}
	return texts
}

// newCoordinator starts a distributing service and its HTTP front end,
// both torn down with the test.
func newCoordinator(t *testing.T, opt server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	opt.Distribute = true
	svc, err := server.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

// startWorker runs a pull loop against url until the returned stop
// function is called (registered as test cleanup too).
func startWorker(t *testing.T, url string, opt worker.Options) (stop func()) {
	t.Helper()
	opt.Coordinator = url
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		worker.Run(ctx, opt)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// marshal renders a record the way the stream does, for byte-for-byte
// comparison.
func marshal(t *testing.T, rec api.JobResult) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// directRecords compiles the request's cross product straight through
// driver.CompileAll and renders the wire records the distributed path
// must reproduce byte-for-byte.
func directRecords(t *testing.T, req api.CompileRequest, machines []*machine.Machine) []string {
	t.Helper()
	var loops []*loop.Loop
	for _, text := range req.Loops {
		l, err := loop.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	jobs := driver.Jobs(loops, machines, req.Schedulers, driver.Options{})
	direct := driver.CompileAll(context.Background(), jobs, driver.BatchOptions{})
	want := make([]string, len(jobs))
	for i, res := range direct {
		if res.Err != nil {
			t.Fatalf("direct %s: %v", res.Job, res.Err)
		}
		rec := server.Record(res)
		rec.Index = i
		want[i] = marshal(t, rec)
	}
	return want
}

// compareRecords asserts every reassembled record matches the direct
// driver output byte-for-byte (Cached normalized away, as it reports
// serving provenance rather than schedule content).
func compareRecords(t *testing.T, got []api.JobResult, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		rec.Cached = false
		if g := marshal(t, rec); g != want[i] {
			t.Errorf("job %d diverges from direct CompileAll:\n got %s\nwant %s", i, g, want[i])
		}
	}
}

// TestWorkerEndToEnd is the distributed acceptance test: a batch
// submitted through pkg/dmsclient against a coordinator with two
// worker processes yields results byte-identical to direct
// driver.CompileAll — the client cannot tell the workers exist. A
// second identical batch is then served from the coordinator's cache
// without dispatching a single unit.
func TestWorkerEndToEnd(t *testing.T) {
	svc, ts := newCoordinator(t, server.Options{})
	startWorker(t, ts.URL, worker.Options{ID: "w1"})
	startWorker(t, ts.URL, worker.Options{ID: "w2"})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	njobs := req.Jobs()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)

	// Async surface: submit, poll, stream retained results.
	job, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := cli.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("distributed job = %+v", done)
	}
	recs, sum, err := cli.ResultsAll(ctx, job.ID, done.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != njobs || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want %d jobs", sum, njobs)
	}
	compareRecords(t, recs, want)

	dm := svc.Snapshot().Dispatch
	if dm == nil || dm.Dispatched != uint64(njobs) || dm.Resolved != uint64(njobs) {
		t.Errorf("dispatch metrics = %+v, want %d dispatched and resolved", dm, njobs)
	}

	// Sync surface, identical batch: full coordinator cache hit — no
	// new units dispatched, every record marked cached and otherwise
	// byte-identical.
	recs2, sum2, err := cli.CompileAll(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs2 {
		if !rec.Cached {
			t.Errorf("warm job %d not served from the coordinator cache", i)
		}
	}
	if sum2.Cached != njobs {
		t.Errorf("warm summary = %+v, want %d cached", sum2, njobs)
	}
	compareRecords(t, recs2, want)
	if dm := svc.Snapshot().Dispatch; dm.Dispatched != uint64(njobs) {
		t.Errorf("warm batch dispatched %d new units, want 0", dm.Dispatched-uint64(njobs))
	}
}

// TestWorkerCrashRequeues is the crash-safety acceptance test: a
// worker that leases units and dies without posting loses its lease,
// the units return to the queue, and a healthy worker finishes the
// batch with results byte-identical to direct driver.CompileAll.
func TestWorkerCrashRequeues(t *testing.T) {
	svc, ts := newCoordinator(t, server.Options{
		LeaseTTL: 300 * time.Millisecond,
	})

	// Worker A schedules through a gate that never opens: it leases
	// units, heartbeats, and computes nothing until it is killed.
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	gatedReg := driver.NewRegistry()
	gatedReg.MustRegister(gated)
	stopA := startWorker(t, ts.URL, worker.Options{ID: "doomed", Chunk: 2, Registry: gatedReg})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2)})
	njobs := req.Jobs()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	job, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the doomed worker holds leased units, then kill it
	// mid-batch: its lease must expire and the units requeue.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Snapshot().Dispatch.LeasedUnits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker A never leased a unit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls := gated.Calls.Load(); calls == 0 {
		// The lease is held but scheduling has not begun; either way the
		// worker dies holding unresolved units.
		t.Logf("killing worker A before its first schedule call")
	}
	stopA()

	// The healthy worker B finishes everything, including the requeued
	// units A died holding.
	startWorker(t, ts.URL, worker.Options{ID: "survivor"})

	done, err := cli.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("post-crash job = %+v", done)
	}
	recs, sum, err := cli.ResultsAll(ctx, job.ID, done.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != njobs || sum.Errors != 0 {
		t.Fatalf("post-crash summary = %+v, want %d jobs", sum, njobs)
	}
	compareRecords(t, recs, want)

	dm := svc.Snapshot().Dispatch
	if dm.Requeued == 0 {
		t.Error("no units were requeued — the crash never cost worker A its lease")
	}
	if dm.Resolved != uint64(njobs) {
		t.Errorf("resolved = %d, want %d", dm.Resolved, njobs)
	}
}

// TestWorkerHeartbeatOutlivesLeaseTTL: a worker's idle heartbeat
// keeps its lease alive however long a unit compiles, so no scheduler
// needs a lease TTL of its own. Every unit here schedules for six
// lease TTLs without posting a result, and none is requeued.
func TestWorkerHeartbeatOutlivesLeaseTTL(t *testing.T) {
	const ttl = 100 * time.Millisecond
	svc, ts := newCoordinator(t, server.Options{LeaseTTL: ttl})
	reg := driver.NewRegistry()
	for _, name := range []string{"exact", "dms"} {
		slow, err := drivertest.NewSlow(name, 6*ttl)
		if err != nil {
			t.Fatal(err)
		}
		reg.MustRegister(slow)
	}
	startWorker(t, ts.URL, worker.Options{ID: "slow", Chunk: 2, Parallelism: 2, Registry: reg})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2, Unclustered: true}},
		Schedulers: []string{"exact", "dms"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Unclustered(2)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	job, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := cli.Wait(ctx, job.ID)
	if err != nil || done.State != api.JobDone {
		t.Fatalf("job = %+v, %v; want done", done, err)
	}
	recs, sum, err := cli.ResultsAll(ctx, job.ID, done.Jobs)
	if err != nil || sum.Errors != 0 {
		t.Fatalf("results: summary %+v, %v", sum, err)
	}
	compareRecords(t, recs, want)
	if dm := svc.Snapshot().Dispatch; dm.Requeued != 0 {
		t.Errorf("dispatch.requeued = %d, want 0: a heartbeat lapsed while units compiled", dm.Requeued)
	}
}

// TestWorkerCleanDrainNoSpuriousExpiry pins the heartbeat shutdown
// order: the coordinator forgets a lease the moment its final unit
// result is acked, so a heartbeat that fires while (or after) the
// final post is in flight draws 410 lease_expired for a lease that
// drained cleanly — and the worker would log a spurious expiry and
// cancel its lease context. The fake coordinator here marks the lease
// complete as soon as the last result arrives and then stalls the
// response well past the heartbeat interval: every heartbeat the
// worker lets slip through during or after that window is counted as
// a spurious 410.
func TestWorkerCleanDrainNoSpuriousExpiry(t *testing.T) {
	loopText := goldenLoops(t)[0]
	const leaseID = "lease-drain"
	unit := func(id string) api.WorkUnit {
		return api.WorkUnit{ID: id, Hash: id, Loop: loopText, Machine: api.MachineSpec{Clusters: 2}, Scheduler: "dms"}
	}

	var (
		mu        sync.Mutex
		handed    bool
		resolved  = map[string]bool{}
		complete  bool
		spurious  int // posts (heartbeat or result) answered 410 after clean completion
		ackedAll  = make(chan struct{})
		closeOnce sync.Once
	)
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set(api.ProtocolHeader, api.Version)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathWorkersLease, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !handed
		handed = true
		mu.Unlock()
		if first {
			writeJSON(w, http.StatusOK, api.Lease{ID: leaseID, Units: []api.WorkUnit{unit("u1"), unit("u2")}, TTLMS: 150})
			return
		}
		writeJSON(w, http.StatusOK, api.Lease{PollMS: 60_000})
	})
	mux.HandleFunc(api.WorkerResultsPath(leaseID), func(w http.ResponseWriter, r *http.Request) {
		var req api.WorkResultsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad results body: %v", err)
		}
		mu.Lock()
		if complete {
			spurious++
			mu.Unlock()
			writeJSON(w, http.StatusGone, api.ErrorResponse{Error: api.Error{Code: api.CodeLeaseExpired, Message: "lease expired"}})
			return
		}
		for _, ur := range req.Results {
			resolved[ur.Unit] = true
		}
		done := len(resolved) == 2
		if done {
			complete = true
		}
		mu.Unlock()
		if done {
			// Stall the final ack across several heartbeat intervals:
			// a ticker the worker has not stopped by then will post
			// into the now-forgotten lease.
			time.Sleep(300 * time.Millisecond)
			closeOnce.Do(func() { close(ackedAll) })
		}
		writeJSON(w, http.StatusOK, api.WorkResultsResponse{Acked: len(req.Results)})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	startWorker(t, ts.URL, worker.Options{ID: "drain", Parallelism: 1})

	select {
	case <-ackedAll:
	case <-time.After(30 * time.Second):
		t.Fatal("lease never drained")
	}
	// Grace period for any straggler heartbeat to land.
	time.Sleep(300 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if !resolved["u1"] || !resolved["u2"] {
		t.Fatalf("units resolved = %v, want both", resolved)
	}
	if spurious != 0 {
		t.Errorf("clean lease drain drew %d spurious lease_expired responses", spurious)
	}
}

// TestWorkerLeaseExpiredPostRejected pins the exactly-once guarantee
// at the wire: a worker posting under an expired lease gets 410
// lease_expired and zero acks — the units already belong to the queue
// (or another worker) again.
func TestWorkerLeaseExpiredPostRejected(t *testing.T) {
	_, ts := newCoordinator(t, server.Options{LeaseTTL: 50 * time.Millisecond})

	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	if _, err := cli.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}

	lease, err := cli.LeaseWork(ctx, api.LeaseRequest{Worker: "slow", WaitMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID == "" || len(lease.Units) == 0 {
		t.Fatalf("no lease handed out: %+v", lease)
	}
	// Outlive the TTL without a heartbeat, then try to post.
	time.Sleep(200 * time.Millisecond)
	_, err = cli.PushWorkResults(ctx, lease.ID, []api.UnitResult{{
		Unit:   lease.Units[0].ID,
		Result: api.JobResult{Job: "late", Error: "too late", ErrorCode: api.CodeInternal},
	}})
	var apiErr *api.Error
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeLeaseExpired {
		t.Fatalf("post under an expired lease: err = %v, want lease_expired", err)
	}
	if apiErr.Code.Retryable() {
		t.Error("lease_expired must not be retryable")
	}

	// The unit is leasable again — by a different worker.
	release, err := cli.LeaseWork(ctx, api.LeaseRequest{Worker: "fresh", WaitMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if release.ID == "" || len(release.Units) == 0 {
		t.Fatalf("expired units were not requeued: %+v", release)
	}
	if release.Units[0].ID != lease.Units[0].ID {
		t.Errorf("requeued unit %q, want %q", release.Units[0].ID, lease.Units[0].ID)
	}
}

// compileWire compiles one leased wire unit the way a worker does and
// returns its result record.
func compileWire(t *testing.T, u api.WorkUnit) api.JobResult {
	t.Helper()
	lj := server.LeaseJobs([]api.WorkUnit{u})[0]
	if lj.Err != nil {
		t.Fatal(lj.Err)
	}
	res := driver.CompileAll(context.Background(), []driver.Job{lj.Job}, driver.BatchOptions{})[0]
	if res.Err != nil {
		t.Fatalf("unit %s: %v", u.ID, res.Err)
	}
	return server.Record(res)
}

// TestWorkerForeignUnitPostRejected: only the coordinator-side ack of
// the lease that holds a unit resolves it. A post under live lease A
// naming the unit lease B holds is acked by nothing and settles
// nothing; when B posts its real result, the job's stream is
// byte-identical to direct driver.CompileAll.
func TestWorkerForeignUnitPostRejected(t *testing.T) {
	svc, ts := newCoordinator(t, server.Options{})
	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
		NoCache:    true,
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	job, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	leaseOne := func(worker string) *api.Lease {
		t.Helper()
		l, err := cli.LeaseWork(ctx, api.LeaseRequest{Worker: worker, MaxUnits: 1, WaitMS: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if l.ID == "" || len(l.Units) != 1 {
			t.Fatalf("lease for %s = %+v, want one unit", worker, l)
		}
		return l
	}
	a, b := leaseOne("a"), leaseOne("b")

	before := svc.Snapshot().Dispatch.Resolved
	resp, err := cli.PushWorkResults(ctx, a.ID, []api.UnitResult{{
		Unit:   b.Units[0].ID,
		Result: api.JobResult{Job: "forged", Error: "forged", ErrorCode: api.CodeInternal},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acked != 0 {
		t.Fatalf("post naming another lease's unit: acked %d, want 0", resp.Acked)
	}
	if got := svc.Snapshot().Dispatch.Resolved; got != before {
		t.Fatalf("dispatch.resolved %d -> %d after a foreign post", before, got)
	}

	for _, l := range []*api.Lease{b, a} {
		resp, err := cli.PushWorkResults(ctx, l.ID, []api.UnitResult{{Unit: l.Units[0].ID, Result: compileWire(t, l.Units[0])}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Acked != 1 {
			t.Fatalf("real post under lease %s: acked %d, want 1", l.ID, resp.Acked)
		}
	}
	if done, err := cli.Wait(ctx, job.ID); err != nil || done.State != api.JobDone {
		t.Fatalf("job = %+v, %v; want done", done, err)
	}
	recs, _, err := cli.ResultsAll(ctx, job.ID, len(want))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	compareRecords(t, recs, want)
}

// TestWorkerCanceledListReleasesLease: once the client cancels a job
// whose units a worker holds, a heartbeat post lists those units in
// canceled; posting canceled results for them acks them, and the job
// stays canceled with no record appended.
func TestWorkerCanceledListReleasesLease(t *testing.T) {
	svc, ts := newCoordinator(t, server.Options{})
	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
		NoCache:    true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cli := dmsclient.New(ts.URL)
	job, err := cli.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := cli.LeaseWork(ctx, api.LeaseRequest{Worker: "w", MaxUnits: 8, WaitMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Units) != req.Jobs() {
		t.Fatalf("lease holds %d units, want %d", len(lease.Units), req.Jobs())
	}
	if c, err := cli.Cancel(ctx, job.ID); err != nil || c.State != api.JobCanceled {
		t.Fatalf("cancel = %+v, %v", c, err)
	}

	hb, err := cli.PushWorkResults(ctx, lease.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for _, u := range lease.Units {
		held = append(held, u.ID)
	}
	if hb.Acked != 0 || !slices.Equal(hb.Canceled, held) {
		t.Fatalf("heartbeat = %+v, want canceled %v", hb, held)
	}

	results := make([]api.UnitResult, len(lease.Units))
	for i, u := range lease.Units {
		results[i] = api.UnitResult{Unit: u.ID, Result: api.JobResult{
			Job: u.Scheduler, Error: "canceled by coordinator", ErrorCode: api.CodeCanceled,
		}}
	}
	resp, err := cli.PushWorkResults(ctx, lease.ID, results)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acked != len(results) || len(resp.Canceled) != 0 {
		t.Fatalf("canceled post = %+v, want %d acked and none left", resp, len(results))
	}
	got, err := cli.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobCanceled || got.Done != 0 {
		t.Fatalf("job after the canceled post = %+v, want canceled with no record", got)
	}
	if dm := svc.Snapshot().Dispatch; dm.LeasedUnits != 0 || dm.ActiveLeases != 0 {
		t.Fatalf("lease not released: %+v", dm)
	}
}
