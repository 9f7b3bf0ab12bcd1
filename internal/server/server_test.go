package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/loop"
	"repro/internal/machine"
)

// goldenLoops reads the checked-in loop corpus the text-format golden
// tests use, so the service is exercised on exactly the loops whose
// schedules the rest of the suite pins down.
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

// newTestServer starts a service and its HTTP front end, both torn
// down with the test.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

// postCompile submits one request to the synchronous compile route and
// returns the streamed records reordered by index, plus the terminal
// summary.
func postCompile(t *testing.T, url string, req api.CompileRequest) ([]api.JobResult, *api.Summary) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+api.PathCompile, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if proto := resp.Header.Get(api.ProtocolHeader); proto != api.Version {
		t.Fatalf("protocol header %q, want %q", proto, api.Version)
	}
	njobs := req.Jobs()
	records := make([]api.JobResult, njobs)
	seen := make([]bool, njobs)
	var summary *api.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lines := 0
	for sc.Scan() {
		rec, sum, err := api.DecodeStreamLine(sc.Bytes())
		if err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if sum != nil {
			if summary != nil {
				t.Fatal("two summary records in one stream")
			}
			summary = sum
			continue
		}
		if summary != nil {
			t.Fatal("result line after the summary record")
		}
		if rec.Index < 0 || rec.Index >= njobs {
			t.Fatalf("index %d out of range [0,%d)", rec.Index, njobs)
		}
		if seen[rec.Index] {
			t.Fatalf("index %d streamed twice", rec.Index)
		}
		seen[rec.Index] = true
		records[rec.Index] = *rec
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != njobs {
		t.Fatalf("streamed %d results for %d jobs", lines, njobs)
	}
	return records, summary
}

// submitJobErr posts a request to the asynchronous route and decodes
// the created job resource. It never touches testing.T, so it is safe
// to call from spawned goroutines.
func submitJobErr(url string, req api.CompileRequest) (api.Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.Job{}, err
	}
	resp, err := http.Post(url+api.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return api.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		return api.Job{}, fmt.Errorf("POST %s: status %d, want 202: %s", api.PathJobs, resp.StatusCode, raw)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return api.Job{}, err
	}
	if job.ID == "" {
		return api.Job{}, fmt.Errorf("created job has no ID")
	}
	return job, nil
}

// submitJob is submitJobErr for the test goroutine, failing the test
// on any error.
func submitJob(t *testing.T, url string, req api.CompileRequest) api.Job {
	t.Helper()
	job, err := submitJobErr(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// getJob polls one job resource.
func getJob(t *testing.T, url, id string) api.Job {
	t.Helper()
	resp, err := http.Get(url + api.JobPath(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", api.JobPath(id), resp.StatusCode, raw)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, url, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		job := getJob(t, url, id)
		if job.State.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readResults streams /v1/jobs/{id}/results from the given offset,
// stopping early after maxLines result lines (0 = no limit) by closing
// the connection — the "dropped connection" half of the resume tests.
// It returns the result lines read and the summary (nil if the stream
// was abandoned before it).
func readResults(t *testing.T, url, id string, from, maxLines int) ([]api.JobResult, *api.Summary) {
	t.Helper()
	resp, err := http.Get(url + api.JobResultsPath(id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET results: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	var recs []api.JobResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		rec, sum, err := api.DecodeStreamLine(sc.Bytes())
		if err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if sum != nil {
			return recs, sum
		}
		recs = append(recs, *rec)
		if maxLines > 0 && len(recs) >= maxLines {
			return recs, nil // Body.Close kills the connection mid-stream
		}
	}
	t.Fatalf("results stream ended without a summary (read %d lines)", len(recs))
	return nil, nil
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
// driver.CompileAll and renders the wire records the service must
// reproduce byte-for-byte.
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
		rec := Record(res)
		rec.Index = i
		want[i] = marshal(t, rec)
	}
	return want
}

// TestServerEndToEnd is the synchronous-surface acceptance test: a
// server on a random port compiles the golden corpus, the streamed
// results match direct driver.CompileAll output byte-for-byte, and a
// second identical submission is served entirely from the cache —
// observable through the metrics endpoint — with identical payloads.
func TestServerEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Options{})

	texts := goldenLoops(t)
	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	njobs := req.Jobs()

	// Cold run: everything compiled, nothing cached.
	cold, sum := postCompile(t, ts.URL, req)
	for i, rec := range cold {
		if rec.Cached {
			t.Errorf("job %d cached on a cold run", i)
		}
		if got := marshal(t, rec); got != want[i] {
			t.Errorf("job %d diverges from direct CompileAll:\n got %s\nwant %s", i, got, want[i])
		}
	}
	if sum == nil || sum.Jobs != njobs || sum.Errors != 0 || sum.Cached != 0 {
		t.Fatalf("cold summary = %+v, want %d jobs, 0 errors, 0 cached", sum, njobs)
	}
	met := svc.Snapshot()
	if met.Cache.Misses != uint64(njobs) || met.Cache.Hits != 0 {
		t.Fatalf("cold metrics = %+v, want %d misses and 0 hits", met.Cache, njobs)
	}

	// Warm run: byte-identical payloads, all served from the cache.
	warm, sum := postCompile(t, ts.URL, req)
	for i, rec := range warm {
		if !rec.Cached {
			t.Errorf("job %d not cached on the warm run", i)
		}
		rec.Cached = false
		if got := marshal(t, rec); got != want[i] {
			t.Errorf("warm job %d diverges:\n got %s\nwant %s", i, got, want[i])
		}
	}
	if sum == nil || sum.Cached != njobs {
		t.Fatalf("warm summary = %+v, want %d cached", sum, njobs)
	}

	// The metrics endpoint must expose the full hit count, and the
	// queue gauges must show both batches accounted for.
	resp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != uint64(njobs) {
		t.Errorf("hits = %d, want %d (second submission must be a full cache hit)", m.Cache.Hits, njobs)
	}
	if m.Cache.Misses != uint64(njobs) {
		t.Errorf("misses = %d, want %d (warm run must not recompile)", m.Cache.Misses, njobs)
	}
	if m.Requests != 2 || m.Jobs != int64(2*njobs) || m.JobErrors != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Queue.Admitted != 2 || m.Queue.Completed != 2 || m.Queue.Rejected != 0 {
		t.Errorf("queue metrics = %+v, want 2 admitted and completed", m.Queue)
	}
	// Synchronous jobs are released on completion — their IDs are never
	// revealed, so retaining them would only evict async jobs' buffers.
	if m.Queue.Retained != 0 {
		t.Errorf("retained = %d after synchronous runs, want 0", m.Queue.Retained)
	}
}

// TestServerJobResourceLifecycle is the asynchronous acceptance test:
// a batch submitted via POST /v1/jobs is polled to completion, its
// results connection is killed mid-stream, the client re-attaches with
// ?from=, and the reassembled results are byte-identical to a direct
// driver.CompileAll run.
func TestServerJobResourceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	texts := goldenLoops(t)
	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	njobs := req.Jobs()

	created := submitJob(t, ts.URL, req)
	if created.Jobs != njobs {
		t.Fatalf("created job counts %d jobs, want %d", created.Jobs, njobs)
	}
	if created.State.Terminal() {
		t.Fatalf("created job already terminal: %s", created.State)
	}
	if created.CreatedUnixMS == 0 {
		t.Error("created job has no creation timestamp")
	}

	done := waitJob(t, ts.URL, created.ID)
	if done.State != api.JobDone || done.Done != njobs || done.Errors != 0 {
		t.Fatalf("terminal job = %+v", done)
	}

	// First attachment dies after 3 result lines (connection closed).
	const cut = 3
	head, sum := readResults(t, ts.URL, created.ID, 0, cut)
	if sum != nil {
		t.Fatal("stream completed before the test could drop it")
	}
	// Re-attach with the resume offset; the replayed tail must complete
	// the set without recomputation or overlap.
	tail, sum := readResults(t, ts.URL, created.ID, cut, 0)
	if sum == nil {
		t.Fatal("resumed stream ended without a summary")
	}
	if sum.Jobs != njobs || sum.Errors != 0 {
		t.Fatalf("resumed summary = %+v, want %d jobs", sum, njobs)
	}

	all := append(head, tail...)
	if len(all) != njobs {
		t.Fatalf("resumed reassembly has %d results, want %d", len(all), njobs)
	}
	seen := make([]bool, njobs)
	for _, rec := range all {
		if rec.Index < 0 || rec.Index >= njobs || seen[rec.Index] {
			t.Fatalf("index %d out of range or duplicated across the resumed streams", rec.Index)
		}
		seen[rec.Index] = true
		rec2 := rec
		rec2.Cached = false
		if got := marshal(t, rec2); got != want[rec.Index] {
			t.Errorf("job %d diverges from direct CompileAll:\n got %s\nwant %s", rec.Index, got, want[rec.Index])
		}
	}

	// A canceled DELETE on a finished job is an idempotent no-op.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+api.JobPath(created.ID), nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var after api.Job
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.State != api.JobDone {
		t.Errorf("DELETE on a done job moved it to %s", after.State)
	}
}

// newGatedRegistry returns a registry whose "dms" blocks on the
// returned scheduler's gate.
func newGatedRegistry(t *testing.T) (*driver.Registry, *drivertest.Gated) {
	t.Helper()
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	return reg, gated
}

// TestServerQueueSaturation pins the admission-control contract: with
// a full queue behind the one busy puller, POST /v1/jobs answers a
// structured 429 queue_full with a Retry-After hint, the rejection is
// counted, and draining the queue restores admission.
func TestServerQueueSaturation(t *testing.T) {
	reg, gated := newGatedRegistry(t)
	svc, ts := newTestServer(t, Options{
		Registry:      reg,
		QueueCapacity: 1,
		Parallelism:   1,
		RetryAfter:    2 * time.Second,
	})

	texts := goldenLoops(t)
	mkReq := func(i int) api.CompileRequest {
		return api.CompileRequest{
			Loops:      texts[i : i+1],
			Machines:   []api.MachineSpec{{Clusters: 2}},
			Schedulers: []string{"dms"},
		}
	}

	running := submitJob(t, ts.URL, mkReq(0))
	// Wait for the puller to pick it up, so the next submission
	// occupies the queue slot rather than the puller.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, running.ID).State == api.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submitJob(t, ts.URL, mkReq(1))
	if pos := getJob(t, ts.URL, queued.ID).QueuePos; pos != 1 {
		t.Errorf("queued job position = %d, want 1", pos)
	}

	// The queue is full: the next submission must bounce with 429.
	body, _ := json.Marshal(mkReq(2))
	resp, err := http.Post(ts.URL+api.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get(api.RetryAfterHeader); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.Error.Code != api.CodeQueueFull {
		t.Errorf("error code %q, want %q", er.Error.Code, api.CodeQueueFull)
	}
	if !er.Error.Code.Retryable() {
		t.Error("queue_full must be retryable")
	}

	// The synchronous wrapper shares the admission path: it must bounce
	// identically instead of queueing without bound.
	resp2, err := http.Post(ts.URL+api.PathCompile, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sync compile on a full queue: status %d, want 429", resp2.StatusCode)
	}
	resp2.Body.Close()

	if m := svc.Snapshot().Queue; m.Rejected != 2 || m.Depth != 1 || m.Running != 1 {
		t.Errorf("queue metrics = %+v, want 2 rejected, depth 1, running 1", m)
	}

	// Freeing the puller admits new work again.
	close(gated.Gate)
	if done := waitJob(t, ts.URL, queued.ID); done.State != api.JobDone {
		t.Fatalf("queued job finished as %s", done.State)
	}
	third := submitJob(t, ts.URL, mkReq(2))
	if done := waitJob(t, ts.URL, third.ID); done.State != api.JobDone {
		t.Fatalf("post-drain job finished as %s", done.State)
	}
}

// TestServerCachedUnitsKeepJobQueued: a cache hit settled at admission
// does not start its job. A batch whose other unit still waits for the
// one busy puller stays queued and counts against QueueCapacity, so the
// next submission gets 429: warm units cannot carry batches past
// admission onto the unbounded unit queue.
func TestServerCachedUnitsKeepJobQueued(t *testing.T) {
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	twophase, err := driver.Get("twophase")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	reg.MustRegister(twophase)
	svc, ts := newTestServer(t, Options{Registry: reg, QueueCapacity: 1, Parallelism: 1})

	texts := goldenLoops(t)
	warm := api.CompileRequest{
		Loops:      texts[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"twophase"},
	}
	if done := waitJob(t, ts.URL, submitJob(t, ts.URL, warm).ID); done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("warm-up job = %+v", done)
	}
	// One warm twophase unit plus one gated dms unit.
	mixed := warm
	mixed.Schedulers = []string{"twophase", "dms"}

	first := submitJob(t, ts.URL, mixed)
	eventually(t, "the puller to take the first batch's dms unit", func() bool { return gated.Calls.Load() == 1 })
	second := submitJob(t, ts.URL, mixed)
	eventually(t, "the second batch's cache hit to settle", func() bool { return getJob(t, ts.URL, second.ID).Done == 1 })
	if j := getJob(t, ts.URL, second.ID); j.State != api.JobQueued || j.QueuePos != 1 {
		t.Fatalf("batch with a settled cache hit and a waiting unit = %+v, want queued at position 1", j)
	}
	if _, err := submitJobErr(ts.URL, mixed); err == nil || !strings.Contains(err.Error(), "status 429") {
		t.Fatalf("submit past capacity: %v, want status 429", err)
	}
	if m := svc.Snapshot().Queue; m.Rejected != 1 || m.Depth != 1 || m.Running != 1 {
		t.Errorf("queue metrics = %+v, want 1 rejected, depth 1, running 1", m)
	}

	close(gated.Gate)
	// The second batch's dms unit is warm by the time the puller takes
	// it, so both of its records are cache hits.
	for i, id := range []string{first.ID, second.ID} {
		if done := waitJob(t, ts.URL, id); done.State != api.JobDone || done.Done != 2 || done.Cached != i+1 || done.Errors != 0 {
			t.Fatalf("job %s = %+v, want done with %d of 2 cached", id, done, i+1)
		}
	}
}

// TestServerCancelQueuedJob pins the cancellation half of admission
// control: a canceled queued job never reaches the driver, its results
// stream is an empty one closed by a zero summary, and the metrics
// count the cancellation.
func TestServerCancelQueuedJob(t *testing.T) {
	reg, gated := newGatedRegistry(t)
	svc, ts := newTestServer(t, Options{Registry: reg, Parallelism: 1})

	texts := goldenLoops(t)
	running := submitJob(t, ts.URL, api.CompileRequest{
		Loops:      texts[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	})
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, running.ID).State == api.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	victim := submitJob(t, ts.URL, api.CompileRequest{
		Loops:      texts[1:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	})

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+api.JobPath(victim.ID), nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var canceled api.Job
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if canceled.State != api.JobCanceled {
		t.Fatalf("canceled job state = %s", canceled.State)
	}

	close(gated.Gate)
	if done := waitJob(t, ts.URL, running.ID); done.State != api.JobDone {
		t.Fatalf("running job finished as %s", done.State)
	}
	// Only the first job's single (loop, machine, scheduler) triple may
	// have reached the scheduler.
	if calls := gated.Calls.Load(); calls != 1 {
		t.Errorf("driver saw %d schedule calls, want 1 (canceled queued job must never compile)", calls)
	}
	// The canceled job's results stream: no result lines, a terminal
	// zero summary.
	recs, sum := readResults(t, ts.URL, victim.ID, 0, 0)
	if len(recs) != 0 || sum == nil || sum.Jobs != 0 {
		t.Errorf("canceled job stream = %d recs, summary %+v; want 0 and a zero summary", len(recs), sum)
	}
	if m := svc.Snapshot().Queue; m.Canceled != 1 {
		t.Errorf("queue metrics = %+v, want 1 canceled", m)
	}
}

// TestServerConcurrentIdenticalRequests hammers one job set from many
// clients at once: whatever the interleaving, each distinct job is
// compiled at most once (single-flight + cache), which the miss
// counter proves.
func TestServerConcurrentIdenticalRequests(t *testing.T) {
	svc, ts := newTestServer(t, Options{})

	req := api.CompileRequest{
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 4}},
		Schedulers: []string{"dms"},
	}
	njobs := len(req.Loops)
	const clients = 8
	var wg sync.WaitGroup
	first := make([][]api.JobResult, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first[c], _ = postCompile(t, ts.URL, req)
		}(c)
	}
	wg.Wait()
	for c := 1; c < clients; c++ {
		for i := range first[c] {
			a, b := first[0][i], first[c][i]
			a.Cached, b.Cached = false, false
			if marshal(t, a) != marshal(t, b) {
				t.Errorf("client %d job %d differs from client 0", c, i)
			}
		}
	}
	met := svc.Snapshot()
	if met.Cache.Misses != uint64(njobs) {
		t.Errorf("misses = %d, want %d (each job must compile exactly once across %d concurrent clients)",
			met.Cache.Misses, njobs, clients)
	}
}

// TestServerConcurrentJobsSingleFlight is the queue/cache interaction
// property on the asynchronous surface: identical batches submitted
// via POST /v1/jobs — executing concurrently on a widened pool — still
// single-flight through the content-addressed cache, so each distinct
// (loop, machine, scheduler) triple compiles exactly once. The miss
// counter proves it; the hit/shared counters account for every other
// serving.
func TestServerConcurrentJobsSingleFlight(t *testing.T) {
	svc, ts := newTestServer(t, Options{Parallelism: 4 * runtime.GOMAXPROCS(0)})

	req := api.CompileRequest{
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 4}},
		Schedulers: []string{"dms"},
	}
	njobs := req.Jobs()
	const batches = 6
	ids := make([]string, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			job, err := submitJobErr(ts.URL, req)
			ids[b], errs[b] = job.ID, err
		}(b)
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	var want []string
	for b, id := range ids {
		done := waitJob(t, ts.URL, id)
		if done.State != api.JobDone || done.Errors != 0 {
			t.Fatalf("batch %d = %+v", b, done)
		}
		recs, sum := readResults(t, ts.URL, id, 0, 0)
		if sum.Jobs != njobs {
			t.Fatalf("batch %d summary %+v", b, sum)
		}
		byIndex := make([]string, njobs)
		for _, rec := range recs {
			rec.Cached = false
			byIndex[rec.Index] = marshal(t, rec)
		}
		if want == nil {
			want = byIndex
			continue
		}
		for i := range byIndex {
			if byIndex[i] != want[i] {
				t.Errorf("batch %d job %d differs from batch 0", b, i)
			}
		}
	}

	met := svc.Snapshot()
	if met.Cache.Misses != uint64(njobs) {
		t.Errorf("misses = %d, want %d (each distinct job must compile exactly once across %d identical batches)",
			met.Cache.Misses, njobs, batches)
	}
	if served := met.Cache.Hits + met.Cache.Shared; served != uint64((batches-1)*njobs) {
		t.Errorf("hits+shared = %d, want %d (every other serving must come from the cache or a shared flight)",
			served, (batches-1)*njobs)
	}
}

// TestServerJobErrorIsolation: a job that cannot schedule (IMS on a
// clustered machine) is reported in its own stream line — with the
// internal error code — and does not disturb its neighbours; failures
// are never cached.
func TestServerJobErrorIsolation(t *testing.T) {
	svc, ts := newTestServer(t, Options{})

	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms", "ims"}, // ims rejects clustered machines
	}
	for round := 0; round < 2; round++ {
		recs, sum := postCompile(t, ts.URL, req)
		if recs[0].Error != "" || recs[0].Schedule == "" {
			t.Fatalf("round %d: dms job: %+v", round, recs[0])
		}
		if recs[1].Error == "" || !strings.Contains(recs[1].Error, "unclustered") {
			t.Fatalf("round %d: ims job did not fail as expected: %+v", round, recs[1])
		}
		if recs[1].ErrorCode != api.CodeInternal {
			t.Errorf("round %d: error code %q, want %q", round, recs[1].ErrorCode, api.CodeInternal)
		}
		if recs[1].Cached {
			t.Fatalf("round %d: error result served from cache", round)
		}
		if sum.Errors != 1 {
			t.Errorf("round %d: summary errors = %d, want 1", round, sum.Errors)
		}
	}
	if met := svc.Snapshot(); met.JobErrors != 2 {
		t.Errorf("job errors = %d, want 2 (failures recompute every round)", met.JobErrors)
	}
}

// decodeErrorResponse reads a non-200 body as the structured error.
func decodeErrorResponse(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response content type %q, want application/json", ct)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body is not the structured form: %v", err)
	}
	if er.Error.Message == "" {
		t.Error("structured error without a message")
	}
	return er.Error
}

// TestServerRequestValidation pins the 400 paths and their structured
// error codes on both submission surfaces: empty axes, malformed
// loops, unknown schedulers, bad machines, oversized cross products,
// protocol mismatches.
func TestServerRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		body string
		code api.ErrorCode
	}{
		{"empty body", ``, api.CodeInvalidRequest},
		{"no loops", `{"machines":[{"clusters":2}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"no machines", `{"loops":["loop a trip 1\nx = load\n"],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"no schedulers", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":2}]}`, api.CodeInvalidRequest},
		{"bad loop", `{"loops":["not a loop"],"machines":[{"clusters":2}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"unknown scheduler", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":2}],"schedulers":["nope"]}`, api.CodeUnknownScheduler},
		{"bad machine", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":0}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"bad machine config", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"config":{"clusters":0}}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"too many clusters", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":100000}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"too many unclustered units", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":65,"unclustered":true}],"schedulers":["ims"]}`, api.CodeInvalidRequest},
		{"too many config clusters", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"config":{"clusters":65,"units_per_cluster":{"mem":1}}}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"too many config units", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"config":{"clusters":2,"units_per_cluster":{"mem":65}}}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"too long a latency", `{"loops":["loop a trip 1\nx = load\n"],"machines":[{"config":{"clusters":2,"units_per_cluster":{"mem":1},"latencies":{"load":65}}}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"unknown field", `{"loop_texts":["x"],"machines":[{"clusters":2}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
		{"future protocol", `{"protocol":"v9","loops":["loop a trip 1\nx = load\n"],"machines":[{"clusters":2}],"schedulers":["dms"]}`, api.CodeInvalidRequest},
	}
	for _, path := range []string{api.PathCompile, api.PathJobs} {
		for _, tc := range cases {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: status %d, want 400", tc.name, path, resp.StatusCode)
			}
			if e := decodeErrorResponse(t, resp); e.Code != tc.code {
				t.Errorf("%s on %s: code %q, want %q", tc.name, path, e.Code, tc.code)
			}
		}
	}
}

// TestServerStructuredRouteErrors: unknown routes, wrong methods and
// unknown job IDs answer with the structured api error JSON, never
// plain-text 404/405.
func TestServerStructuredRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Wrong method on the compile route: structured error, Allow header.
	resp0, err := http.Get(ts.URL + api.PathCompile)
	if err != nil {
		t.Fatal(err)
	}
	if resp0.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", api.PathCompile, resp0.StatusCode)
	}
	if allow := resp0.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("GET %s: Allow %q, want POST", api.PathCompile, allow)
	}
	if e := decodeErrorResponse(t, resp0); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET %s: code %q, want %q", api.PathCompile, e.Code, api.CodeMethodNotAllowed)
	}

	// Wrong methods on the job routes.
	resp, err := http.Get(ts.URL + api.PathJobs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", api.PathJobs, resp.StatusCode)
	}
	if e := decodeErrorResponse(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET %s: code %q", api.PathJobs, e.Code)
	}
	resp, err = http.Post(ts.URL+api.PathJobs+"/abc", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST %s/abc: status %d, want 405", api.PathJobs, resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "DELETE") {
		t.Errorf("POST %s/abc: Allow %q, want GET, DELETE", api.PathJobs, allow)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+api.PathMetrics, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeErrorResponse(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("POST %s: code %q, want %q", api.PathMetrics, e.Code, api.CodeMethodNotAllowed)
	}

	// Unknown routes and unknown job IDs.
	for _, path := range []string{"/", "/nope", "/v1/nope", "/v2/compile", "/compile", "/metrics", "/schedulers", "/healthz",
		api.JobPath("no-such-job"), api.JobResultsPath("no-such-job", 0)} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if e := decodeErrorResponse(t, resp); e.Code != api.CodeNotFound {
			t.Errorf("GET %s: code %q, want %q", path, e.Code, api.CodeNotFound)
		}
	}

	// A malformed resume offset is a structured invalid_request.
	job := submitJob(t, ts.URL, api.CompileRequest{
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	})
	waitJob(t, ts.URL, job.ID)
	for _, from := range []string{"x", "-1"} {
		resp, err := http.Get(ts.URL + api.JobPath(job.ID) + "/results?from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("from=%s: status %d, want 400", from, resp.StatusCode)
		}
		if e := decodeErrorResponse(t, resp); e.Code != api.CodeInvalidRequest {
			t.Errorf("from=%s: code %q", from, e.Code)
		}
	}
}

// TestServerBodyDecodeErrors: every POST body the server decodes
// refuses malformed JSON, unknown fields and a foreign protocol with a
// structured invalid_request whose message names the body it read.
func TestServerBodyDecodeErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, c := range []struct {
		path, prefix string
	}{
		{api.PathCompile, "bad request body: "},
		{api.PathJobs, "bad request body: "},
		{api.PathWorkersLease, "bad lease request: "},
		{api.WorkerResultsPath("no-such-lease"), "bad results post: "},
	} {
		for _, body := range []struct{ text, prefix string }{
			{`{`, c.prefix},
			{`{"no_such_field":1}`, c.prefix + "json: unknown field "},
			{`{"protocol":"v0"}`, `protocol "v0" not supported (this server speaks ` + api.Version + ")"},
		} {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(body.text))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s: status %d, want 400", c.path, body.text, resp.StatusCode)
			}
			e := decodeErrorResponse(t, resp)
			if e.Code != api.CodeInvalidRequest || !strings.HasPrefix(e.Message, body.prefix) {
				t.Errorf("POST %s %s: %s %q, want %s with prefix %q", c.path, body.text, e.Code, e.Message, api.CodeInvalidRequest, body.prefix)
			}
		}
	}
}

// TestServerJobTTLExpiry: after the retention TTL a finished job's ID
// answers not_found on every job route.
func TestServerJobTTLExpiry(t *testing.T) {
	_, ts := newTestServer(t, Options{JobTTL: 30 * time.Millisecond})

	job := submitJob(t, ts.URL, api.CompileRequest{
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	})
	waitJob(t, ts.URL, job.ID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + api.JobPath(job.ID))
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerMachineSpecs covers the three machine forms: clustered,
// unclustered, and a full JSON config with a custom latency model.
func TestServerMachineSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cfg, err := json.Marshal(machine.ClusteredWithCopyFUs(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	loopText := goldenLoops(t)[0]
	recs, _ := postCompile(t, ts.URL, api.CompileRequest{
		Loops:      []string{loopText},
		Machines:   []api.MachineSpec{{Clusters: 3}, {Config: cfg}},
		Schedulers: []string{"dms"},
	})
	for i, rec := range recs {
		if rec.Error != "" {
			t.Errorf("job %d: %s", i, rec.Error)
		}
	}
	recs, _ = postCompile(t, ts.URL, api.CompileRequest{
		Loops:      []string{loopText},
		Machines:   []api.MachineSpec{{Clusters: 2, Unclustered: true}},
		Schedulers: []string{"ims", "sms"},
	})
	for i, rec := range recs {
		if rec.Error != "" {
			t.Errorf("unclustered job %d: %s", i, rec.Error)
		}
	}
}

// TestServerSchedulersAndHealth covers the discovery endpoints.
func TestServerSchedulersAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + api.PathSchedulers)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []api.SchedulerInfo
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(entries))
	for _, e := range entries {
		got[e.Name] = e.Clustered
	}
	want := map[string]bool{"dms": true, "twophase": true, "ims": false, "sms": false}
	for name, clustered := range want {
		family, ok := got[name]
		if !ok || family != clustered {
			t.Errorf("schedulers missing or misclassifying %s: %v", name, got)
		}
	}

	hresp, err := http.Get(ts.URL + api.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", hresp.StatusCode)
	}
	var h api.Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Protocol != api.Version {
		t.Errorf("health = %+v", h)
	}
}
