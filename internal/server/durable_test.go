package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/jobs"
	"repro/internal/machine"
)

// openDurableServer opens a server (surfacing Open errors) and fronts
// it with an httptest server. Nothing is registered for cleanup —
// restart tests control teardown order themselves.
func openDurableServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return svc, httptest.NewServer(svc.Handler())
}

// TestServerNoDataDirNoDurability pins the compatibility contract:
// without DataDir the metrics payload carries no durability block (the
// wire golden file stays byte-identical) and nothing touches disk.
func TestServerNoDataDirNoDurability(t *testing.T) {
	svc, _ := newTestServer(t, Options{})
	if m := svc.Snapshot(); m.Durability != nil {
		t.Fatalf("Durability = %+v without a data dir, want absent", m.Durability)
	}
}

// TestDurableStandaloneRestart: a standalone server's finished jobs
// survive a graceful restart — same job ID, same state, byte-identical
// result stream — and the reopened server accepts new work.
func TestDurableStandaloneRestart(t *testing.T) {
	opt := Options{DataDir: t.TempDir()}
	svc1, ts1 := openDurableServer(t, opt)

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2)})
	job := submitJob(t, ts1.URL, req)
	if done := waitJob(t, ts1.URL, job.ID); done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("job before restart = %+v", done)
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := openDurableServer(t, opt)
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	m := svc2.Snapshot().Durability
	if m == nil || m.RecoveredBuffers != 1 || m.RecoveredTasks != 0 {
		t.Fatalf("durability after restart = %+v, want 1 buffer, 0 tasks", m)
	}
	after := getJob(t, ts2.URL, job.ID)
	if after.State != api.JobDone || after.Jobs != req.Jobs() || after.Done != req.Jobs() {
		t.Fatalf("recovered job = %+v", after)
	}
	recs, sum := readResults(t, ts2.URL, job.ID, 0, 0)
	if sum == nil || sum.Jobs != req.Jobs() || sum.Errors != 0 {
		t.Fatalf("recovered summary = %+v", sum)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	for i, rec := range recs {
		rec.Cached = false
		if g := marshal(t, rec); g != want[i] {
			t.Errorf("recovered record %d diverges:\n got %s\nwant %s", i, g, want[i])
		}
	}

	// The recovered store keeps serving: a fresh batch runs to done.
	job2 := submitJob(t, ts2.URL, api.CompileRequest{
		Loops:      goldenLoops(t)[:1],
		Machines:   []api.MachineSpec{{Clusters: 4}},
		Schedulers: []string{"dms"},
	})
	if done := waitJob(t, ts2.URL, job2.ID); done.State != api.JobDone {
		t.Fatalf("post-recovery job = %+v", done)
	}
}

// TestDurableStandaloneResumesInterruptedBatch: a standalone server's
// batches are durable like a coordinator's. Closed while its in-process
// pullers hold some units — the rest already resolved — it leaves the
// held units pending, and reopened standalone over the same directory it
// resumes the job under its original ID to results byte-identical to
// driver.CompileAll.
func TestDurableStandaloneResumesInterruptedBatch(t *testing.T) {
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
	dir := t.TempDir()
	// Eight pullers, four per batch: three hold the gated dms units, the
	// fourth resolves every twophase unit.
	svc1, ts1 := openDurableServer(t, Options{DataDir: dir, Registry: reg, Parallelism: 8})

	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:3],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms", "twophase"},
	}
	njobs := req.Jobs()
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2)})
	job := submitJob(t, ts1.URL, req)
	eventually(t, "three dms units held and three twophase units resolved", func() bool {
		return gated.Calls.Load() == 3 && getJob(t, ts1.URL, job.ID).Done == 3
	})
	ts1.Close()
	svc1.Close()

	svc2, ts2 := openDurableServer(t, Options{DataDir: dir})
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	if m := svc2.Snapshot().Durability; m == nil || m.RecoveredTasks != 3 || m.RecoveredBuffers != 1 {
		t.Fatalf("durability after restart = %+v, want 3 tasks, 1 buffer", m)
	}
	done := waitJob(t, ts2.URL, job.ID)
	if done.State != api.JobDone || done.Done != njobs || done.Errors != 0 {
		t.Fatalf("resumed job = %+v", done)
	}
	recs, sum := readResults(t, ts2.URL, job.ID, 0, 0)
	if sum == nil || sum.Jobs != njobs || sum.Errors != 0 || len(recs) != njobs {
		t.Fatalf("resumed stream = %d records, summary %+v", len(recs), sum)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	for i, rec := range recs {
		rec.Cached = false
		if g := marshal(t, rec); g != want[i] {
			t.Errorf("resumed record %d diverges:\n got %s\nwant %s", i, g, want[i])
		}
	}
	eventually(t, "the 3 recovered units resolved and acked", func() bool {
		dm := svc2.Snapshot().Dispatch
		return dm.Resolved == 3 && dm.PendingUnits == 0 && dm.LeasedUnits == 0
	})
}

// TestDurableKillAfterDispatchedKeepsEveryUnit is the standalone
// kill -9 leg of CI in Go. Once dispatch.dispatched reaches the batch
// size, every unit is queued, and none has a result record: a copy of
// the live data directory, taken without closing the server (a kill,
// to the files), rebuilds all of them from the batch record, and the
// job resumes to done from the copy. Its one puller is gated, so no
// unit resolves before the copy.
func TestDurableKillAfterDispatchedKeepsEveryUnit(t *testing.T) {
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	reg := driver.NewRegistry()
	reg.MustRegister(gated)
	dir := t.TempDir()
	svc1, ts1 := openDurableServer(t, Options{DataDir: dir, Registry: reg, Parallelism: 1})
	t.Cleanup(svc1.Close)
	t.Cleanup(ts1.Close)

	var loops []string
	for len(loops) < 100 {
		loops = append(loops, goldenLoops(t)...)
	}
	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      loops[:100],
		Machines:   []api.MachineSpec{{Clusters: 1}, {Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms"},
		NoCache:    true,
	}
	njobs := req.Jobs()
	job := submitJob(t, ts1.URL, req)
	eventually(t, "every unit dispatched", func() bool {
		return svc1.Snapshot().Dispatch.Dispatched == uint64(njobs)
	})
	killed := t.TempDir()
	copyDir(t, dir, killed)

	svc2, ts2 := openDurableServer(t, Options{DataDir: killed})
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	if m := svc2.Snapshot().Durability; m == nil || m.RecoveredTasks != njobs || m.RecoveredBuffers != 1 {
		t.Fatalf("durability of the copy = %+v, want %d tasks, 1 buffer", m, njobs)
	}
	done := waitJob(t, ts2.URL, job.ID)
	if done.State != api.JobDone || done.Done != njobs || done.Errors != 0 {
		t.Fatalf("resumed job = %+v", done)
	}
	noQueueDir(t, dir)
	noQueueDir(t, killed)
}

// TestDurableCopyAt202RecoversEveryUnit: a batch is durable the moment
// its 202 answers. A copy of the data directory taken right then — a
// kill -9 before any unit is keyed, queued or compiled — recovers every
// unit from the batch record, and the copy runs the job to done with
// results byte-identical to driver.CompileAll. Standalone, the one
// puller is gated; the coordinator has no workers.
func TestDurableCopyAt202RecoversEveryUnit(t *testing.T) {
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	gatedReg := driver.NewRegistry()
	gatedReg.MustRegister(gated)
	// Enough units that keying them all takes milliseconds: the copy
	// lands before most of them are queued.
	var loops []string
	for len(loops) < 150 {
		loops = append(loops, goldenLoops(t)...)
	}
	loops = loops[:150]
	want := directRecords(t, api.CompileRequest{Loops: loops, Schedulers: []string{"dms"}},
		[]*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"standalone", Options{Registry: gatedReg, Parallelism: 1}},
		{"coordinator", Options{Distribute: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := tc.opt
			opt.DataDir = dir
			svc1, ts1 := openDurableServer(t, opt)
			t.Cleanup(svc1.Close)
			t.Cleanup(ts1.Close)
			req := api.CompileRequest{
				Protocol:   api.Version,
				Loops:      loops,
				Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
				Schedulers: []string{"dms"},
			}
			njobs := req.Jobs()
			job := submitJob(t, ts1.URL, req)
			crashed := t.TempDir()
			copyDir(t, dir, crashed)

			svc2, ts2 := openDurableServer(t, Options{DataDir: crashed})
			t.Cleanup(ts2.Close)
			t.Cleanup(svc2.Close)
			if m := svc2.Snapshot().Durability; m == nil || m.RecoveredTasks != njobs || m.RecoveredBuffers != 1 {
				t.Fatalf("durability of the copy = %+v, want %d tasks, 1 buffer", m, njobs)
			}
			done := waitJob(t, ts2.URL, job.ID)
			if done.State != api.JobDone || done.Done != njobs || done.Errors != 0 {
				t.Fatalf("resumed job = %+v", done)
			}
			recs, sum := readResults(t, ts2.URL, job.ID, 0, 0)
			if sum == nil || sum.Jobs != njobs || len(recs) != njobs {
				t.Fatalf("resumed stream = %d records, summary %+v", len(recs), sum)
			}
			sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
			for i, rec := range recs {
				rec.Cached = false
				if g := marshal(t, rec); g != want[i] {
					t.Errorf("resumed record %d diverges:\n got %s\nwant %s", i, g, want[i])
				}
			}
		})
	}
}

// noQueueDir fails the test when dir holds a queue/ directory: a
// server writes no unit queue log.
func noQueueDir(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "queue")); !os.IsNotExist(err) {
		t.Fatalf("%s holds a queue/ directory (stat: %v)", dir, err)
	}
}

// TestSubmitPersistsMeta: a durable server records each batch in its
// job's segment before the 202 answers: n, and the validated request
// with its effective timeout. The engine writes no metadata of its own.
func TestSubmitPersistsMeta(t *testing.T) {
	dir := t.TempDir()
	svc, ts := openDurableServer(t, Options{DataDir: dir, Distribute: true, Timeout: 2 * time.Second})
	t.Cleanup(svc.Close)
	t.Cleanup(ts.Close)
	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms", "twophase"},
		Options:    api.Options{MaxII: 40},
		NoCache:    true,
	}
	job := submitJob(t, ts.URL, req)
	copied := t.TempDir()
	copyDir(t, dir, copied)
	ds, err := jobs.NewDiskStore(filepath.Join(copied, "results"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	meta, ok := ds.Meta(job.ID)
	if !ok {
		t.Fatal("no batch record in the segment at the 202")
	}
	var rec batchRecord
	if err := json.Unmarshal(meta, &rec); err != nil {
		t.Fatalf("batch record %q: %v", meta, err)
	}
	want := req
	want.TimeoutMS = 2000
	if rec.N != req.Jobs() || rec.Request == nil || rec.State != "" {
		t.Fatalf("batch record = %s, want n=%d with the request", meta, req.Jobs())
	}
	if got, wantJSON := marshalAny(t, *rec.Request), marshalAny(t, want); got != wantJSON {
		t.Fatalf("recorded request:\n got %s\nwant %s", got, wantJSON)
	}
}

// marshalAny renders v as JSON for comparison.
func marshalAny(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDurableRefusesUnrecoverableBatch: a request whose batch record
// would not fit one segment frame is refused as invalid_request before
// admission; the same request is accepted without a data dir.
func TestDurableRefusesUnrecoverableBatch(t *testing.T) {
	// The body, sent unescaped, is a few MiB; the record escapes every
	// '<' to the six-byte \u003c and outgrows the frame limit.
	line := "# " + strings.Repeat("<", 4096) + "\n"
	text := goldenLoops(t)[0] + strings.Repeat(line, jobs.MaxMetaBytes/5/4096)
	req := api.CompileRequest{
		Loops:      []string{text},
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	if body.Len() > maxRequestBody {
		t.Fatalf("request body %d bytes exceeds the body limit", body.Len())
	}
	svc, ts := openDurableServer(t, Options{DataDir: t.TempDir(), Distribute: true})
	t.Cleanup(svc.Close)
	t.Cleanup(ts.Close)
	post := func(url string) (int, api.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(url+api.PathJobs, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	if code, e := post(ts.URL); code != http.StatusBadRequest || !strings.Contains(e.Error.Message, "batch record") {
		t.Fatalf("oversized batch record answered %d %+v, want 400 invalid_request", code, e.Error)
	}
	if m := svc.Snapshot().Queue; m.Admitted != 0 {
		t.Fatalf("refused batch admitted: %+v", m)
	}

	_, mem := newTestServer(t, Options{Distribute: true})
	if code, e := post(mem.URL); code != http.StatusAccepted {
		t.Fatalf("in-memory server answered %d %+v, want 202", code, e.Error)
	}
}

// copyDir copies the regular files under src into dst, keeping their
// relative paths.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableCoordinatorGracefulRestartKeepsUnits: a distributing
// coordinator closed with queued units (no workers attached) must NOT
// treat its own shutdown as batch cancellation — it writes no terminal
// record, and the restarted coordinator re-admits the job with every
// unit rebuilt from the batch record and queued again. Canceling the
// recovered job then releases them.
func TestDurableCoordinatorGracefulRestartKeepsUnits(t *testing.T) {
	opt := Options{DataDir: t.TempDir(), Distribute: true}
	svc1, ts1 := openDurableServer(t, opt)

	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	njobs := req.Jobs()
	job := submitJob(t, ts1.URL, req)
	deadline := time.Now().Add(30 * time.Second)
	for svc1.Snapshot().Dispatch.PendingUnits != njobs {
		if time.Now().After(deadline) {
			t.Fatalf("units never queued: %+v", svc1.Snapshot().Dispatch)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := openDurableServer(t, opt)
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	m := svc2.Snapshot()
	if m.Durability == nil || m.Durability.RecoveredTasks != njobs || m.Durability.RecoveredBuffers != 1 {
		t.Fatalf("durability = %+v, want %d tasks, 1 buffer", m.Durability, njobs)
	}
	if m.Dispatch.PendingUnits != njobs {
		t.Fatalf("pending units after recovery = %d, want %d", m.Dispatch.PendingUnits, njobs)
	}
	if after := getJob(t, ts2.URL, job.ID); after.State.Terminal() {
		t.Fatalf("recovered job already terminal: %+v", after)
	}
	noQueueDir(t, opt.DataDir)

	// A client cancel of the recovered job withdraws its units for good.
	if _, ok := svc2.engine.Cancel(job.ID); !ok {
		t.Fatalf("recovered job %s unknown to the engine", job.ID)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		j := getJob(t, ts2.URL, job.ID)
		if j.State.Terminal() {
			if j.State != api.JobCanceled {
				t.Fatalf("canceled recovered job = %+v", j)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never canceled: %+v", j)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if dm := svc2.Snapshot().Dispatch; dm.PendingUnits != 0 || dm.LeasedUnits != 0 {
		t.Fatalf("units survived cancellation: %+v", dm)
	}
}

// TestDurableCancelWithdrawsBeforeAnswer: a DELETE withdraws the job's
// queued units and appends the job's terminal record to its segment
// before it answers "canceled". A crash right after the answer —
// simulated by opening a copy of the data directory taken at that
// instant — recovers the job as canceled with no units, never resuming
// it to done.
func TestDurableCancelWithdrawsBeforeAnswer(t *testing.T) {
	dir := t.TempDir()
	svc1, ts1 := openDurableServer(t, Options{DataDir: dir, Distribute: true})
	t.Cleanup(ts1.Close)
	t.Cleanup(svc1.Close)
	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	njobs := req.Jobs()
	job := submitJob(t, ts1.URL, req)
	eventually(t, "the units to queue", func() bool { return svc1.Snapshot().Dispatch.PendingUnits == njobs })

	delReq, _ := http.NewRequest(http.MethodDelete, ts1.URL+api.JobPath(job.ID), nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var canceled api.Job
	err = json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if err != nil || canceled.State != api.JobCanceled {
		t.Fatalf("DELETE answered %+v (%v), want canceled", canceled, err)
	}
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := openDurableServer(t, Options{DataDir: crashed, Distribute: true})
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	if m := svc2.Snapshot(); m.Durability == nil || m.Durability.RecoveredTasks != 0 || m.Dispatch.PendingUnits != 0 {
		t.Fatalf("after the crash: durability %+v, dispatch %+v; want no units", m.Durability, m.Dispatch)
	}
	if after := getJob(t, ts2.URL, job.ID); after.State != api.JobCanceled || after.Error != "" {
		t.Fatalf("job after the crash = %+v, want canceled by its client", after)
	}
}

// TestDurableRecoveryIncompleteBatchCanceled: a job of the previous
// format (its record holds only n) whose buffer is missing results AND
// whose units are gone from the queue log (the fsync-off crash case)
// cannot be resumed faithfully — recovery settles it as canceled with
// an explanatory failure, keeping the partial results streamable.
func TestDurableRecoveryIncompleteBatchCanceled(t *testing.T) {
	dir := t.TempDir()
	ds, err := jobs.NewDiskStore(filepath.Join(dir, "results"), false)
	if err != nil {
		t.Fatal(err)
	}
	ds.Create("ghost").Append(api.JobResult{Index: 0, Job: "partial"})
	if err := ds.SetMeta("ghost", []byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	j, ok := svc.engine.Get("ghost")
	if !ok {
		t.Fatal("incomplete job not recovered at all")
	}
	snap := j.Snapshot()
	if snap.State != api.JobCanceled || !strings.Contains(snap.Error, "incomplete") {
		t.Fatalf("incomplete job = %+v, want canceled with failure note", snap)
	}
	if snap.Done != 1 {
		t.Fatalf("partial results lost: %+v", snap)
	}
}

// TestDurableRecoveryCompletedJobSettles: a segment whose records
// cover all n indices re-registers as done, even under a record that
// carries no request: nothing is left to queue.
func TestDurableRecoveryCompletedJobSettles(t *testing.T) {
	dir := t.TempDir()
	ds, err := jobs.NewDiskStore(filepath.Join(dir, "results"), false)
	if err != nil {
		t.Fatal(err)
	}
	ds.Create("ghost").Append(api.JobResult{Index: 0, Job: "done"})
	if err := ds.SetMeta("ghost", []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	svc, err := Open(Options{DataDir: dir, Distribute: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	j, ok := svc.engine.Get("ghost")
	if !ok {
		t.Fatal("completed job not recovered")
	}
	if snap := j.Snapshot(); snap.State != api.JobDone || snap.Done != 1 {
		t.Fatalf("completed job = %+v, want done", snap)
	}
	if dm := svc.Snapshot().Dispatch; dm.PendingUnits != 0 || dm.LeasedUnits != 0 {
		t.Fatalf("completed job queued units: %+v", dm)
	}
	if m := svc.Snapshot().Durability; m.RecoveredTasks != 0 {
		t.Fatalf("durability = %+v, want no recovered task", m)
	}
}

// TestDurableRecoverySegmentWithoutMeta: a segment created in the
// crash window before its size record lands describes a batch of
// unknowable size; recovery drops it rather than inventing a state.
func TestDurableRecoverySegmentWithoutMeta(t *testing.T) {
	dir := t.TempDir()
	ds, err := jobs.NewDiskStore(filepath.Join(dir, "results"), false)
	if err != nil {
		t.Fatal(err)
	}
	ds.Create("orphan").Append(api.JobResult{Index: 0})
	ds.Close()

	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if _, ok := svc.engine.Get("orphan"); ok {
		t.Fatal("metaless segment resurrected as a job")
	}
	if _, ok := svc.durable.store.Get("orphan"); ok {
		t.Fatal("metaless segment kept in the store")
	}
}

// TestDurableRecoveryUnbuildableRecord: a batch record whose request no
// longer builds (its scheduler is not registered in this process)
// cannot be re-queued; its pending units settle as error records, so
// the job still reaches done instead of hanging.
func TestDurableRecoveryUnbuildableRecord(t *testing.T) {
	dir := t.TempDir()
	ds, err := jobs.NewDiskStore(filepath.Join(dir, "results"), false)
	if err != nil {
		t.Fatal(err)
	}
	ds.Create("gone")
	rec := fmt.Sprintf(`{"n":2,"request":{"loops":[%q],"machines":[{"clusters":2}],"schedulers":["retired"],"options":{}}}`, goldenLoops(t)[0])
	if err := ds.SetMeta("gone", []byte(rec)); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	j, ok := svc.engine.Get("gone")
	if !ok {
		t.Fatal("job with an unbuildable record not recovered")
	}
	lines, state := j.Results(0)
	if state != api.JobDone || len(lines) != 2 {
		t.Fatalf("job = %s with %d records, want done with 2", state, len(lines))
	}
	for _, line := range lines {
		var r api.JobResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.Error, "recovered unit unusable") || r.ErrorCode != api.CodeInternal {
			t.Fatalf("record %+v, want a recovered-unit-unusable error", r)
		}
	}
	if m := svc.Snapshot().Durability; m.RecoveredTasks != 0 {
		t.Fatalf("durability = %+v, want no units queued", m)
	}
}

// TestDurableRecoveryQueuesInAdmissionOrder: a restarted coordinator
// queues the units of the batches it recovers in the order the batches
// were admitted, so an older interrupted batch never waits behind a
// newer one. One lease takes every unit; its units come grouped by
// batch, in submission order.
func TestDurableRecoveryQueuesInAdmissionOrder(t *testing.T) {
	opt := Options{DataDir: t.TempDir(), Distribute: true}
	svc1, ts1 := openDurableServer(t, opt)
	const batches, per = 6, 3
	var order []string
	for b := 0; b < batches; b++ {
		loops := make([]string, per)
		for i := range loops {
			loops[i] = fmt.Sprintf("loop b%du%d trip %d\nx = load\ny = load\nm = mul x, y\nacc = add m, acc@1\nout = store acc\n", b, i, 10+b*per+i)
		}
		job := submitJob(t, ts1.URL, api.CompileRequest{
			Loops:      loops,
			Machines:   []api.MachineSpec{{Clusters: 2}},
			Schedulers: []string{"dms"},
			NoCache:    true,
		})
		order = append(order, job.ID)
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := openDurableServer(t, opt)
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	resp, err := http.Post(ts2.URL+api.PathWorkersLease, "application/json",
		strings.NewReader(`{"worker":"w","max_units":256}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease api.Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if len(lease.Units) != batches*per {
		t.Fatalf("lease holds %d units, want %d", len(lease.Units), batches*per)
	}
	var got []string
	for _, u := range lease.Units {
		// A unit ID is "<job ID>/<index>".
		k := strings.LastIndexByte(u.ID, '/')
		if k <= 0 {
			t.Fatalf("unit ID %q", u.ID)
		}
		jobID := u.ID[:k]
		if len(got) == 0 || got[len(got)-1] != jobID {
			got = append(got, jobID)
		}
	}
	if strings.Join(got, " ") != strings.Join(order, " ") {
		t.Fatalf("units leased in batch order\n %v\nwant submission order\n %v", got, order)
	}
}

// segmentRecordLines reads a job's segment file and returns each
// record frame's payload followed by a newline, in file order.
func segmentRecordLines(t *testing.T, dataDir, id string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "results", hex.EncodeToString([]byte(id))+".seg"))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for len(data) > 0 {
		if len(data) < 9 {
			t.Fatalf("segment ends in a partial frame header")
		}
		n := int(binary.LittleEndian.Uint32(data[:4]))
		if len(data) < 9+n {
			t.Fatalf("segment ends in a partial frame")
		}
		if data[4] == 'R' {
			lines = append(lines, append(append([]byte(nil), data[9:9+n]...), '\n'))
		}
		data = data[9+n:]
	}
	return lines
}

// streamBytes reads a finished job's whole results stream.
func streamBytes(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + api.JobResultsPath(id, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDurableSegmentHoldsStreamLines: a result is encoded once. For a
// finished job, each record frame's payload plus a newline is exactly
// the line GET /v1/jobs/{id}/results writes for it, in the same order,
// and the reopened store streams the same bytes.
func TestDurableSegmentHoldsStreamLines(t *testing.T) {
	opt := Options{DataDir: t.TempDir()}
	svc1, ts1 := openDurableServer(t, opt)
	req := api.CompileRequest{
		Loops:      goldenLoops(t)[:3],
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
	}
	job := submitJob(t, ts1.URL, req)
	if j := waitJob(t, ts1.URL, job.ID); j.State != api.JobDone {
		t.Fatalf("job = %+v", j)
	}
	check := func(url string) []byte {
		t.Helper()
		raw := streamBytes(t, url, job.ID)
		lines := bytes.SplitAfter(raw, []byte("\n"))
		if len(lines) != req.Jobs()+2 || len(lines[len(lines)-1]) != 0 {
			t.Fatalf("stream holds %d lines, want %d results and a summary", len(lines)-1, req.Jobs())
		}
		lines = lines[:req.Jobs()]
		seg := segmentRecordLines(t, opt.DataDir, job.ID)
		if len(seg) != len(lines) {
			t.Fatalf("segment holds %d records, the stream %d", len(seg), len(lines))
		}
		for i := range lines {
			if !bytes.Equal(seg[i], lines[i]) {
				t.Fatalf("record %d:\nsegment %q\nstream  %q", i, seg[i], lines[i])
			}
		}
		return raw
	}
	before := check(ts1.URL)
	ts1.Close()
	svc1.Close()

	svc2, ts2 := openDurableServer(t, opt)
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	if after := check(ts2.URL); !bytes.Equal(after, before) {
		t.Fatalf("reopened store streams different bytes:\n%s\nwant\n%s", after, before)
	}
}
