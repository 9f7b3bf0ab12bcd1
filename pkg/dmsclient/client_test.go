package dmsclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/server"
)

// goldenLoopDir is the checked-in loop corpus; the e2e tests drive the
// service on exactly the loops whose schedules the rest of the suite
// pins down.
const goldenLoopDir = "../../internal/loop/testdata"

func readGoldenLoops(t *testing.T) (names, texts []string) {
	t.Helper()
	entries, err := os.ReadDir(goldenLoopDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(goldenLoopDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		texts = append(texts, string(data))
	}
	sort.Sort(byNameTexts{names, texts})
	if len(texts) < 2 {
		t.Fatalf("need at least 2 golden loops, have %d", len(texts))
	}
	return names, texts
}

type byNameTexts struct{ names, texts []string }

func (b byNameTexts) Len() int           { return len(b.names) }
func (b byNameTexts) Less(i, j int) bool { return b.names[i] < b.names[j] }
func (b byNameTexts) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.texts[i], b.texts[j] = b.texts[j], b.texts[i]
}

// newTestService starts a server (torn down with the test) and returns
// it with its base URL.
func newTestService(t *testing.T, opt server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	svc, err := server.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

// directWant compiles the request's cross product straight through the
// driver and renders the wire records the SDK must reproduce.
func directWant(t *testing.T, texts []string, machines []*machine.Machine, schedulers []string) []string {
	t.Helper()
	var loops []*loop.Loop
	for _, text := range texts {
		l, err := loop.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	jobs := driver.Jobs(loops, machines, schedulers, driver.Options{})
	direct := driver.CompileAll(context.Background(), jobs, driver.BatchOptions{})
	want := make([]string, len(jobs))
	for i, res := range direct {
		if res.Err != nil {
			t.Fatalf("direct %s: %v", res.Job, res.Err)
		}
		rec := server.Record(res)
		rec.Index = i
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}
	return want
}

// assertRecords compares reassembled results against the direct-driver
// reference, ignoring cache provenance.
func assertRecords(t *testing.T, results []api.JobResult, want []string) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("reassembled %d results for %d jobs", len(results), len(want))
	}
	for i, got := range results {
		got.Cached = false // cache provenance is service-side state, not payload
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != want[i] {
			t.Errorf("job %d diverges from direct CompileAll:\n got %s\nwant %s", i, gotJSON, want[i])
		}
	}
}

// TestClientEndToEnd is the synchronous-surface acceptance test: a
// server on a random port is driven exclusively through the client —
// the golden loop directory, two machines, one induced mid-stream
// timeout that the client retries — and the reassembled results are
// byte-identical to a direct driver.CompileAll run.
func TestClientEndToEnd(t *testing.T) {
	_, texts := readGoldenLoops(t)

	// The server resolves "dms" to a once-flaky wrapper around the real
	// scheduler: the first attempt at (loops[1], 2 clusters) fails with
	// a timeout-shaped error, every other call delegates.
	realDMS, err := driver.Get("dms")
	if err != nil {
		t.Fatal(err)
	}
	realTwoPhase, err := driver.Get("twophase")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := loop.ParseString(texts[1])
	if err != nil {
		t.Fatal(err)
	}
	flaky := &drivertest.Flaky{Scheduler: realDMS, LoopName: victim.Name, Clusters: 2}
	reg := driver.NewRegistry()
	reg.MustRegister(flaky)
	reg.MustRegister(realTwoPhase)

	_, ts := newTestService(t, server.Options{Registry: reg})

	req := api.CompileRequest{
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}

	cli := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond))
	results, sum, err := cli.CompileAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if !flaky.Fired.Load() {
		t.Fatal("the induced timeout never fired; the retry path was not exercised")
	}
	if sum.Jobs != req.Jobs() || sum.Errors != 0 {
		t.Fatalf("summary %+v, want %d jobs and 0 errors after retry", sum, req.Jobs())
	}

	want := directWant(t, texts, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)}, req.Schedulers)
	assertRecords(t, results, want)

	// Exactly one job error reached the metrics (the induced timeout's
	// first attempt); the retry must not have double-counted.
	met, err := cli.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if met.JobErrors != 1 {
		t.Errorf("server job errors = %d, want exactly the 1 induced timeout", met.JobErrors)
	}

	// Discovery endpoints through the SDK.
	h, err := cli.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Protocol != api.Version {
		t.Errorf("health = %+v", h)
	}
	scheds, err := cli.Schedulers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) != 2 {
		t.Errorf("schedulers = %+v", scheds)
	}
}

// cutWriter aborts its connection after writing limit bytes, modelling
// a network drop mid-stream.
type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.ResponseWriter.Write(p)
	c.remaining -= n
	return n, err
}

func (c *cutWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// dropResultsOnce cuts the FIRST un-resumed results stream (no ?from=)
// after limit bytes; every other request passes through.
type dropResultsOnce struct {
	inner http.Handler
	limit int
	fired atomic.Bool
}

func (d *dropResultsOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/results") && r.URL.Query().Get("from") == "" &&
		d.fired.CompareAndSwap(false, true) {
		d.inner.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: d.limit}, r)
		return
	}
	d.inner.ServeHTTP(w, r)
}

// TestClientAsyncEndToEnd is the asynchronous acceptance test from the
// SDK's side: Submit admits the batch, Wait polls it to completion,
// and ResultsAll streams the retained buffer — surviving a connection
// killed mid-stream by resuming with the ?from= offset — into a result
// set byte-identical to a direct driver.CompileAll run.
func TestClientAsyncEndToEnd(t *testing.T) {
	_, texts := readGoldenLoops(t)
	svc, err := server.Open(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drop := &dropResultsOnce{inner: svc.Handler(), limit: 900}
	ts := httptest.NewServer(drop)
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)

	req := api.CompileRequest{
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	cli := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond), WithPollInterval(5*time.Millisecond))

	job, err := cli.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Jobs != req.Jobs() || job.State.Terminal() {
		t.Fatalf("created job = %+v", job)
	}

	done, err := cli.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone || done.Done != req.Jobs() || done.Errors != 0 {
		t.Fatalf("terminal job = %+v", done)
	}

	results, sum, err := cli.ResultsAll(context.Background(), job.ID, done.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !drop.fired.Load() {
		t.Fatal("the connection cut never fired; the resume path was not exercised")
	}
	if sum.Jobs != req.Jobs() || sum.Errors != 0 {
		t.Fatalf("summary %+v", sum)
	}
	want := directWant(t, texts, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)}, req.Schedulers)
	assertRecords(t, results, want)
}

// saturate fills a single-puller service: one batch holds the puller
// (behind its scheduler's gate), one batch holds a queue slot.
func saturate(t *testing.T, cli *Client, texts []string) {
	t.Helper()
	running, err := cli.Submit(context.Background(), api.CompileRequest{
		Loops: texts[:1], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := cli.Job(context.Background(), running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cli.Submit(context.Background(), api.CompileRequest{
		Loops: texts[1:2], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClientSubmitHonorsRetryAfter: a Submit against a saturated queue
// waits out the server-sent Retry-After hint and succeeds once the
// queue drains — no caller-side handling required.
func TestClientSubmitHonorsRetryAfter(t *testing.T) {
	_, texts := readGoldenLoops(t)
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	_, ts := newTestService(t, server.Options{
		Registry:      reg,
		QueueCapacity: 1,
		Parallelism:   1,
		RetryAfter:    time.Second,
	})

	cli := New(ts.URL, WithBackoff(time.Millisecond), WithPollInterval(5*time.Millisecond))
	saturate(t, cli, texts)

	// A near-zero wait budget confirms the queue is full and the typed
	// error carries the decoded Retry-After hint (the 1s hint cannot
	// fit a 1ms budget, so the first rejection is surfaced).
	_, err = New(ts.URL, WithMaxRetryWait(time.Millisecond)).Submit(context.Background(), api.CompileRequest{
		Loops: texts[2:3], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("saturated submit error = %v, want queue_full", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("decoded Retry-After = %v, want 1s", apiErr.RetryAfter)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("budget-exhausted error %q does not say so", err)
	}

	// With a budget, Submit waits the hint out; the gate opens while it
	// sleeps, so the retry is admitted. The synchronous surface shares
	// the admission path, so CompileAll must recover the same way.
	start := time.Now()
	syncDone := make(chan error, 1)
	go func() {
		_, sum, err := cli.CompileAll(context.Background(), api.CompileRequest{
			Loops: texts[3:4], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
		})
		if err == nil && sum.Errors != 0 {
			err = fmt.Errorf("sync summary %+v", sum)
		}
		syncDone <- err
	}()
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(gated.Gate)
	}()
	job, err := cli.Submit(context.Background(), api.CompileRequest{
		Loops: texts[2:3], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("Submit returned after %v, before the 1s Retry-After hint elapsed", waited)
	}
	if done, err := cli.Wait(context.Background(), job.ID); err != nil || done.State != api.JobDone {
		t.Fatalf("admitted job = %+v, %v", done, err)
	}
	if err := <-syncDone; err != nil {
		t.Fatalf("synchronous CompileAll did not recover from queue_full: %v", err)
	}
}

// TestClientRetryBudgetExhaustion: the cumulative retry wait is capped
// and the error surfaces how long the client waited and why.
func TestClientRetryBudgetExhaustion(t *testing.T) {
	_, texts := readGoldenLoops(t)
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	_, ts := newTestService(t, server.Options{
		Registry:      reg,
		QueueCapacity: 1,
		Parallelism:   1,
		RetryAfter:    time.Second,
	})
	defer close(gated.Gate)

	cli := New(ts.URL, WithBackoff(time.Millisecond), WithPollInterval(5*time.Millisecond))
	saturate(t, cli, texts)

	budgeted := New(ts.URL, WithMaxRetryWait(1500*time.Millisecond))
	start := time.Now()
	_, err = budgeted.Submit(context.Background(), api.CompileRequest{
		Loops: texts[2:3], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	})
	if err == nil {
		t.Fatal("submit against a permanently full queue succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") || !strings.Contains(err.Error(), "waited") {
		t.Errorf("error %q does not surface the exhausted budget and waited time", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeQueueFull {
		t.Errorf("budget error does not wrap the queue_full cause: %v", err)
	}
	// One 1s Retry-After sleep fits the 1.5s budget, a second does not:
	// the call must have waited about a second, not two.
	if waited := time.Since(start); waited < time.Second || waited > 2*time.Second {
		t.Errorf("budgeted submit took %v, want ~1s (one honored hint, then exhaustion)", waited)
	}
}

// TestClientCancelJob: the SDK's cancel path on a queued job — the
// job finishes canceled with an empty, zero-summary result stream.
func TestClientCancelJob(t *testing.T) {
	_, texts := readGoldenLoops(t)
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	_, ts := newTestService(t, server.Options{Registry: reg, Parallelism: 1})
	defer close(gated.Gate)

	cli := New(ts.URL, WithPollInterval(5*time.Millisecond))
	saturate(t, cli, texts) // second submission is queued

	// Saturate returned after submitting two; grab the queued one by
	// submitting a third and canceling it while the puller is held.
	victim, err := cli.Submit(context.Background(), api.CompileRequest{
		Loops: texts[2:3], Machines: []api.MachineSpec{{Clusters: 2}}, Schedulers: []string{"dms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := cli.Cancel(context.Background(), victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != api.JobCanceled {
		t.Fatalf("canceled job state = %s", canceled.State)
	}
	recs, sum, err := cli.ResultsAll(context.Background(), victim.ID, 0)
	if err != nil || len(recs) != 0 || sum.Jobs != 0 {
		t.Fatalf("canceled job results = %d recs, %+v, %v", len(recs), sum, err)
	}
}

// TestClientStreamIterator covers the iter.Seq2 surface directly:
// completion-order delivery, early break, and the context still being
// honored.
func TestClientStreamIterator(t *testing.T) {
	_, texts := readGoldenLoops(t)
	_, ts := newTestService(t, server.Options{})

	cli := New(ts.URL)
	req := api.CompileRequest{
		Loops:      texts[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	seen := 0
	for rec, err := range cli.Compile(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		if rec.Error != "" {
			t.Fatalf("job %d: %s", rec.Index, rec.Error)
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("iterator yielded %d results, want 2", seen)
	}

	// Early break must not error or leak.
	for range cli.Compile(context.Background(), req) {
		break
	}
}

// TestClientSurfacesStructuredErrors: a request-level failure comes
// back as the typed *api.Error, not a stringly HTTP error — on both
// submission surfaces.
func TestClientSurfacesStructuredErrors(t *testing.T) {
	_, texts := readGoldenLoops(t)
	_, ts := newTestService(t, server.Options{})

	cli := New(ts.URL)
	req := api.CompileRequest{
		Loops:      texts[:1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"nope"},
	}
	_, _, err := cli.CompileAll(context.Background(), req)
	apiErr, ok := err.(*api.Error)
	if !ok {
		t.Fatalf("error type %T (%v), want *api.Error", err, err)
	}
	if apiErr.Code != api.CodeUnknownScheduler {
		t.Errorf("code %q, want %q", apiErr.Code, api.CodeUnknownScheduler)
	}
	if _, err := cli.Submit(context.Background(), req); !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownScheduler {
		t.Errorf("async submit error = %v, want unknown_scheduler", err)
	}
	// An unknown job ID is a typed, non-retryable not_found.
	if _, err := cli.Job(context.Background(), "no-such-job"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Errorf("unknown job error = %v, want not_found", err)
	}
	for _, err := range cli.Results(context.Background(), "no-such-job") {
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
			t.Errorf("unknown job results error = %v, want not_found", err)
		}
	}
}

// TestClientProtocolHandshake: a server that does not speak v1 (no
// protocol header) is rejected before any payload is trusted.
func TestClientProtocolHandshake(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`) // no Dms-Protocol header
	}))
	defer fake.Close()

	cli := New(fake.URL)
	if _, err := cli.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("handshake failure not detected: %v", err)
	}
}

// TestClientTruncatedStream: a synchronous stream that dies before the
// summary record is an error, not a silently short result set.
func TestClientTruncatedStream(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ProtocolHeader, api.Version)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"index":0,"job":"a/b/c","mii":1,"ii":1}`)
		// ...and no summary line.
	}))
	defer fake.Close()

	cli := New(fake.URL)
	_, _, err := cli.CompileAll(context.Background(), api.CompileRequest{
		Loops: []string{"x"}, Machines: []api.MachineSpec{{Clusters: 1}}, Schedulers: []string{"dms"},
	})
	if err == nil || !strings.Contains(err.Error(), "summary") {
		t.Fatalf("truncated stream not detected: %v", err)
	}
}

// TestClientResultsGivesUpWithoutProgress: a results stream that drops
// repeatedly with no new lines is surfaced as an error after the
// configured attempts, not retried forever.
func TestClientResultsGivesUpWithoutProgress(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set(api.ProtocolHeader, api.Version)
		w.Header().Set("Content-Type", "application/x-ndjson")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // drop every connection before any line
	}))
	defer fake.Close()

	cli := New(fake.URL, WithRetries(2), WithBackoff(time.Millisecond))
	var got error
	for _, err := range cli.Results(context.Background(), "some-job") {
		got = err
	}
	if got == nil || !strings.Contains(got.Error(), "failed after") {
		t.Fatalf("endless drop not surfaced: %v", got)
	}
	// Initial attempt + 2 retries.
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
}
