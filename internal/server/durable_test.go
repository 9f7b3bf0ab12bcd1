package server

import (
	"net/http/httptest"
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
// units reach the WAL like a coordinator's. Closed while its in-process
// pullers hold some units — the rest already resolved — it leaves the
// held units queued, and reopened standalone over the same directory it
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
	// Four pullers: three hold the gated dms units, the fourth resolves
	// every twophase unit.
	svc1, ts1 := openDurableServer(t, Options{DataDir: dir, Registry: reg, QueueWorkers: 1, Parallelism: 4})

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

// TestDurableCoordinatorGracefulRestartKeepsUnits: a distributing
// coordinator closed with queued units (no workers attached) must NOT
// treat its own shutdown as batch cancellation — the units stay in the
// WAL, and the restarted coordinator re-admits the job with every unit
// queued again. Canceling the recovered job then releases them.
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

// TestDurableRecoveryIncompleteBatchCanceled: a job whose buffer is
// missing results AND whose units are gone from the WAL (the fsync-off
// crash case) cannot be resumed faithfully — recovery settles it as
// canceled with an explanatory failure, keeping the partial results
// streamable.
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

// TestDurableRecoveryCompletedJobSettles: a buffer covering all n
// indices re-registers as done even when the WAL still holds a unit
// for it (a result whose ack frame was lost) — the stale unit is
// withdrawn, not re-dispatched.
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
	wal, err := jobs.NewWALQueue(jobs.NewMemQueue(0), filepath.Join(dir, "queue"), jobs.WALOptions{
		Encode: encodeUnitPayload,
		Decode: decodeUnitPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Enqueue(jobs.Task{ID: "ghost/0", Hash: "h", Payload: api.WorkUnit{ID: "ghost/0"}}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

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
		t.Fatalf("stale unit survived settlement: %+v", dm)
	}
	if m := svc.Snapshot().Durability; m.RecoveredTasks != 1 {
		t.Fatalf("durability = %+v, want 1 recovered task", m)
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
