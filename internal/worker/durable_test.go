package worker_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// TestCoordinatorKillAndRestart is the durability acceptance test: a
// coordinator with a data directory is hard-killed (never Closed —
// nothing flushes, nothing withdraws) while holding one finished batch
// and one batch with leased and queued units. A second coordinator
// opened over the same directory recovers both: the finished batch
// stays pollable with byte-identical results, and the interrupted
// batch resumes under its original job ID, drained by a healthy worker
// to results byte-identical to direct driver.CompileAll.
func TestCoordinatorKillAndRestart(t *testing.T) {
	opt := server.Options{
		Distribute: true,
		DataDir:    t.TempDir(),
	}

	// Process one: deliberately never svc1.Close()d — the kill leaves
	// whatever the segments already hold, like SIGKILL would.
	svc1, err := server.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cli1 := dmsclient.New(ts1.URL)

	// Batch A runs to completion on a real worker, which then leaves.
	reqA := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:2],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
	wantA := directRecords(t, reqA, []*machine.Machine{machine.Clustered(2)})
	stopW1 := startWorker(t, ts1.URL, worker.Options{ID: "w1"})
	jobA, err := cli1.Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := cli1.Wait(ctx, jobA.ID); err != nil || done.State != api.JobDone {
		t.Fatalf("batch A before kill: %+v, %v", done, err)
	}
	stopW1()

	// Batch B uses a different machine (no coordinator cache hits) and
	// meets only a gated worker: it leases units, computes nothing, and
	// dies with the coordinator. At kill time some units are leased,
	// the rest queued — both must recover as pending.
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	gatedReg := driver.NewRegistry()
	gatedReg.MustRegister(gated)
	stopDoomed := startWorker(t, ts1.URL, worker.Options{ID: "doomed", Chunk: 2, Registry: gatedReg})

	reqB := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      goldenLoops(t)[:3],
		Machines:   []api.MachineSpec{{Clusters: 4}},
		Schedulers: []string{"dms"},
	}
	wantB := directRecords(t, reqB, []*machine.Machine{machine.Clustered(4)})
	njobsB := reqB.Jobs()
	jobB, err := cli1.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc1.Snapshot().Dispatch.LeasedUnits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the doomed worker never leased a unit")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill: worker gone, listener gone, server object abandoned.
	stopDoomed()
	ts1.Close()

	// Process two over the same directory.
	svc2, err := server.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	cli2 := dmsclient.New(ts2.URL)

	m := svc2.Snapshot().Durability
	if m == nil {
		t.Fatal("restarted coordinator reports no durability metrics")
	}
	if m.RecoveredTasks != njobsB || m.RecoveredBuffers != 2 {
		t.Fatalf("recovered %d tasks, %d buffers; want %d tasks (batch B) and 2 buffers",
			m.RecoveredTasks, m.RecoveredBuffers, njobsB)
	}
	if m.WALBytes <= 0 {
		t.Fatalf("wal_bytes = %d with %d live units", m.WALBytes, njobsB)
	}

	// Batch A survived as a finished job: same ID, streamed results
	// byte-identical to direct CompileAll.
	doneA, err := cli2.Job(ctx, jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doneA.State != api.JobDone || doneA.Done != reqA.Jobs() {
		t.Fatalf("batch A after restart = %+v", doneA)
	}
	recsA, sumA, err := cli2.ResultsAll(ctx, jobA.ID, reqA.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if sumA.Jobs != reqA.Jobs() || sumA.Errors != 0 {
		t.Fatalf("batch A summary after restart = %+v", sumA)
	}
	compareRecords(t, recsA, wantA)

	// Batch B resumed under its original ID and a healthy worker
	// finishes it.
	if snap, err := cli2.Job(ctx, jobB.ID); err != nil || snap.State.Terminal() {
		t.Fatalf("batch B after restart = %+v, %v (want still in flight)", snap, err)
	}
	startWorker(t, ts2.URL, worker.Options{ID: "healthy"})
	doneB, err := cli2.Wait(ctx, jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doneB.State != api.JobDone || doneB.Errors != 0 {
		t.Fatalf("batch B never finished after restart: %+v", doneB)
	}
	recsB, sumB, err := cli2.ResultsAll(ctx, jobB.ID, njobsB)
	if err != nil {
		t.Fatal(err)
	}
	if sumB.Jobs != njobsB || sumB.Errors != 0 {
		t.Fatalf("batch B summary = %+v, want %d jobs", sumB, njobsB)
	}
	compareRecords(t, recsB, wantB)
}
