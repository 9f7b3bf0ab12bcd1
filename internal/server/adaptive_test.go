package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
)

// TestAdaptiveRetryAfter pins the hint formula: fallback until an EWMA
// exists, then (depth+1) × EWMA over the running batches, floored at
// the header's one-second grammar and capped at MaxRetryAfter.
func TestAdaptiveRetryAfter(t *testing.T) {
	cases := []struct {
		name     string
		depth    int
		running  int
		ewma     time.Duration
		fallback time.Duration
		want     time.Duration
	}{
		{"no observations yet", 10, 2, 0, 3 * time.Second, 3 * time.Second},
		{"fast batches floor at 1s", 0, 2, 5 * time.Millisecond, time.Second, time.Second},
		{"depth scales the hint", 3, 1, 2 * time.Second, time.Second, 8 * time.Second},
		{"running batches divide the wait", 3, 4, 2 * time.Second, time.Second, 2 * time.Second},
		{"nothing running treated as one", 1, 0, 2 * time.Second, time.Second, 4 * time.Second},
		{"deep slow queue hits the cap", 10000, 1, time.Minute, time.Second, MaxRetryAfter},
	}
	for _, tc := range cases {
		if got := adaptiveRetryAfter(tc.depth, tc.running, tc.ewma, tc.fallback); got != tc.want {
			t.Errorf("%s: adaptiveRetryAfter(%d, %d, %v, %v) = %v, want %v",
				tc.name, tc.depth, tc.running, tc.ewma, tc.fallback, got, tc.want)
		}
	}
}

// TestServerAdaptiveRetryAfterScalesWithLoad drives the whole loop: a
// completed batch of known duration establishes the EWMA (visible on
// /v1/metrics), and the next queue_full rejection carries a
// Retry-After scaled beyond the configured fallback, plus the queue
// position in the structured error detail — on the synchronous
// /v1/compile surface, which previously had no way to see its place in
// line.
func TestServerAdaptiveRetryAfterScalesWithLoad(t *testing.T) {
	slow, err := drivertest.NewSlow("dms", 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(slow)
	svc, ts := newTestServer(t, Options{
		Registry:      reg,
		QueueCapacity: 1,
		Parallelism:   1,
		RetryAfter:    time.Second, // the pre-EWMA fallback
	})

	texts := goldenLoops(t)
	mkReq := func(i int) api.CompileRequest {
		return api.CompileRequest{
			Loops:      texts[i : i+1],
			Machines:   []api.MachineSpec{{Clusters: 2}},
			Schedulers: []string{"dms"},
		}
	}

	// Establish the EWMA with one completed ~1.2s batch.
	first := submitJob(t, ts.URL, mkReq(0))
	if done := waitJob(t, ts.URL, first.ID); done.State != api.JobDone {
		t.Fatalf("first job finished as %s", done.State)
	}
	m := svc.Snapshot().Queue
	if m.EWMAServiceMS < 1000 {
		t.Fatalf("EWMAServiceMS = %v after a 1.2s batch, want >= 1000", m.EWMAServiceMS)
	}
	if m.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", m.Workers)
	}
	// The EWMA is on the public metrics surface.
	resp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var wire api.ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wire.Queue.EWMAServiceMS < 1000 {
		t.Errorf("metrics endpoint EWMAServiceMS = %v, want >= 1000", wire.Queue.EWMAServiceMS)
	}

	// Occupy the one puller and the queue slot.
	running := submitJob(t, ts.URL, mkReq(1))
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, running.ID).State == api.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("second job never started")
		}
		time.Sleep(time.Millisecond)
	}
	submitJob(t, ts.URL, mkReq(2))

	// The saturated sync surface must answer with the scaled hint —
	// depth 1, EWMA ~1.2s, one running batch: ceil((1+1)*1.2) ≥ 2s, beyond
	// the 1s fallback — and its queue position in the error detail.
	body, _ := json.Marshal(mkReq(3))
	resp, err = http.Post(ts.URL+api.PathCompile, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sync compile: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get(api.RetryAfterHeader))
	if err != nil || secs < 2 {
		t.Errorf("Retry-After = %q, want an adaptive hint >= 2s (fallback is 1s)", resp.Header.Get(api.RetryAfterHeader))
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeQueueFull {
		t.Fatalf("error code %q, want queue_full", er.Error.Code)
	}
	if er.Error.QueuePos != 2 {
		t.Errorf("sync 429 queue_pos = %d, want 2 (one queued ahead)", er.Error.QueuePos)
	}
}

// TestServerStandaloneMetricsCarryDispatch: every server exposes the
// dispatcher gauges, so operators can scrape one shape in every
// topology — zeros before any batch, and on a standalone server every
// compiled unit counts as dispatched, since the in-process pullers
// lease units off the same queue remote workers do.
func TestServerStandaloneMetricsCarryDispatch(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Dispatch == nil {
		t.Fatal("standalone metrics omit the dispatch block")
	}
	if m.Dispatch.PendingUnits != 0 || m.Dispatch.Dispatched != 0 {
		t.Errorf("standalone dispatcher saw work: %+v", m.Dispatch)
	}

	req := api.CompileRequest{
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	njobs := uint64(req.Jobs())
	for round := 0; round < 2; round++ {
		if _, sum := postCompile(t, ts.URL, req); sum.Errors != 0 {
			t.Fatalf("round %d summary = %+v", round, sum)
		}
		// The warm round is all cache hits, which never queue a unit. A
		// unit is acked off the queue just after its result is stored.
		eventually(t, "every unit dispatched, resolved and acked", func() bool {
			dm := svc.Snapshot().Dispatch
			return dm.Dispatched == njobs && dm.Resolved == njobs && dm.PendingUnits == 0 && dm.LeasedUnits == 0
		})
	}
}

// TestServerWorkerRouteValidation pins the worker-surface 400 paths:
// missing identity, unknown fields, protocol mismatch, bad lease posts.
func TestServerWorkerRouteValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		path string
		body string
	}{
		{"lease without worker", api.PathWorkersLease, `{}`},
		{"lease unknown field", api.PathWorkersLease, `{"worker":"w","nope":1}`},
		{"lease bad protocol", api.PathWorkersLease, `{"protocol":"v9","worker":"w"}`},
		{"results bad body", api.WorkerResultsPath("x"), `{"results":"not-a-list"}`},
		{"results bad protocol", api.WorkerResultsPath("x"), `{"protocol":"v9","results":[]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// A post under a never-issued lease is 410 lease_expired.
	resp, err := http.Post(ts.URL+api.WorkerResultsPath("ghost"), "application/json",
		bytes.NewReader([]byte(`{"results":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("unknown lease post: status %d, want 410", resp.StatusCode)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeLeaseExpired {
		t.Errorf("unknown lease code %q, want lease_expired", er.Error.Code)
	}

	// An idle server's lease endpoint answers an empty lease with a
	// re-poll hint, without long-polling (wait_ms 0).
	resp, err = http.Post(ts.URL+api.PathWorkersLease, "application/json",
		bytes.NewReader([]byte(`{"worker":"idle"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease api.Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if lease.ID != "" || len(lease.Units) != 0 {
		t.Errorf("idle lease = %+v, want empty", lease)
	}
	if lease.PollMS <= 0 {
		t.Errorf("empty lease has no poll hint: %+v", lease)
	}
}

// TestLeaseSizeClamp pins the coordinator's hand-out sizes: a lease
// request naming no size (or a negative one) gets DefaultLeaseChunk
// units, any request is capped at DefaultLeaseChunkMax, the worker's
// dispatch gauge reports the clamped size, and an empty lease carries
// the DefaultWorkerPoll re-poll hint.
func TestLeaseSizeClamp(t *testing.T) {
	svc, ts := newTestServer(t, Options{Distribute: true})
	lease := func(body string) api.Lease {
		t.Helper()
		resp, err := http.Post(ts.URL+api.PathWorkersLease, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lease %s: status %d", body, resp.StatusCode)
		}
		// A lease of any size declares its length, which the worker
		// presizes its read from.
		if resp.ContentLength < 0 {
			t.Errorf("lease %s: no Content-Length (%v)", body, resp.TransferEncoding)
		}
		var l api.Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	if empty := lease(`{"worker":"w"}`); empty.ID != "" || empty.PollMS != 500 {
		t.Errorf("empty lease = %+v, want no units and poll_ms 500", empty)
	}

	// One worker identity takes every lease, so content-hash affinity
	// never holds a unit back from it.
	const n = 300
	loops := make([]string, n)
	for i := range loops {
		loops[i] = "loop dot trip 100\nx = load\ny = load\nm = mul x, y\nacc = add m, acc@1\nout = store acc\n"
	}
	submitJob(t, ts.URL, api.CompileRequest{
		Loops:      loops,
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
		NoCache:    true,
	})
	eventually(t, "every unit queued", func() bool { return svc.Snapshot().Dispatch.PendingUnits == n })

	for _, tc := range []struct {
		maxUnits, want int
	}{
		{0, 8},
		{-5, 8},
		{100000, 256},
	} {
		l := lease(`{"worker":"w","max_units":` + strconv.Itoa(tc.maxUnits) + `}`)
		if len(l.Units) != tc.want {
			t.Errorf("max_units %d: leased %d units, want %d", tc.maxUnits, len(l.Units), tc.want)
		}
		if got := svc.Snapshot().Dispatch.Workers["w"].CurrentChunk; got != tc.want {
			t.Errorf("max_units %d: current_chunk %d, want %d", tc.maxUnits, got, tc.want)
		}
	}
}
