package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/drivertest"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// eventually polls cond until it holds, failing the test after 30s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ctxProbe is a gated back-end that counts the schedule calls whose
// context was canceled while they waited at the gate.
type ctxProbe struct {
	*drivertest.Gated
	canceled atomic.Int64
}

func (p *ctxProbe) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	s, st, err := p.Gated.Schedule(ctx, g, m, opt)
	if errors.Is(err, context.Canceled) {
		p.canceled.Add(1)
	}
	return s, st, err
}

// oneLoopReq is a single-unit dms request over the i-th golden loop.
func oneLoopReq(t *testing.T, i int) api.CompileRequest {
	return api.CompileRequest{
		Loops:      goldenLoops(t)[i : i+1],
		Machines:   []api.MachineSpec{{Clusters: 2}},
		Schedulers: []string{"dms"},
	}
}

// TestPullerCancelReachesScheduler: DELETE on a running standalone job
// cancels the context its in-process puller compiles under, so the
// scheduler aborts and the (only) puller is free for the next job.
func TestPullerCancelReachesScheduler(t *testing.T) {
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	probe := &ctxProbe{Gated: gated}
	reg := driver.NewRegistry()
	reg.MustRegister(probe)
	svc, ts := newTestServer(t, Options{Registry: reg, Parallelism: 1})

	victim := submitJob(t, ts.URL, oneLoopReq(t, 0))
	eventually(t, "the puller to reach the scheduler", func() bool { return gated.Calls.Load() == 1 })
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+api.JobPath(victim.ID), nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if done := waitJob(t, ts.URL, victim.ID); done.State != api.JobCanceled {
		t.Fatalf("canceled job state = %s", done.State)
	}
	eventually(t, "the cancellation to reach the scheduler", func() bool { return probe.canceled.Load() == 1 })

	// The single puller is free again: the next job reaches the
	// scheduler, and runs to done once the gate opens.
	next := submitJob(t, ts.URL, oneLoopReq(t, 1))
	eventually(t, "the freed puller to take the next unit", func() bool { return gated.Calls.Load() == 2 })
	close(gated.Gate)
	if done := waitJob(t, ts.URL, next.ID); done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("next job = %+v", done)
	}
	eventually(t, "the canceled unit to leave the queue", func() bool {
		dm := svc.Snapshot().Dispatch
		return dm.PendingUnits == 0 && dm.LeasedUnits == 0 && dm.Resolved == 2
	})
}

// TestPullerOutlivesLeaseTTL: an in-process lease never expires, so a
// compile running far past LeaseTTL is never requeued behind its
// puller's back.
func TestPullerOutlivesLeaseTTL(t *testing.T) {
	reg, gated := newGatedRegistry(t)
	svc, ts := newTestServer(t, Options{Registry: reg, LeaseTTL: 20 * time.Millisecond, Parallelism: 1})

	req := oneLoopReq(t, 0)
	req.Loops = goldenLoops(t)[:2]
	job := submitJob(t, ts.URL, req)
	eventually(t, "the puller to reach the scheduler", func() bool { return gated.Calls.Load() == 1 })
	time.Sleep(10 * 20 * time.Millisecond) // ten TTLs of janitor sweeps
	if dm := svc.Snapshot().Dispatch; dm.Requeued != 0 || dm.LeasedUnits == 0 || dm.LeasedUnits+dm.PendingUnits != 2 {
		t.Fatalf("dispatch while the compile outlives its TTL = %+v, want both units held or queued, 0 requeued", dm)
	}
	if calls := gated.Calls.Load(); calls != 1 {
		t.Fatalf("scheduler calls = %d, want 1", calls)
	}
	close(gated.Gate)
	if done := waitJob(t, ts.URL, job.ID); done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("job = %+v", done)
	}
	if dm := svc.Snapshot().Dispatch; dm.Requeued != 0 || dm.Dispatched != 2 || dm.Resolved != 2 {
		t.Errorf("dispatch after the batch = %+v, want 2 dispatched and resolved, 0 requeued", dm)
	}
}

// idProbe is a gated back-end that records the job ID each schedule
// call's context carries.
type idProbe struct {
	*drivertest.Gated
	mu  sync.Mutex
	ids []string
}

func (p *idProbe) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	p.mu.Lock()
	p.ids = append(p.ids, jobs.JobID(ctx))
	p.mu.Unlock()
	return p.Gated.Schedule(ctx, g, m, opt)
}

// TestPullerCompilesUnderJobID: an in-process puller compiles a unit
// under its job's context, so jobs.JobID names the submitted job inside
// the scheduler — for a fresh batch, and for the same batch resumed
// from the durable queue after a restart.
func TestPullerCompilesUnderJobID(t *testing.T) {
	gated, err := drivertest.NewGated("dms")
	if err != nil {
		t.Fatal(err)
	}
	probe := &idProbe{Gated: gated}
	reg := driver.NewRegistry()
	reg.MustRegister(probe)
	dir := t.TempDir()
	svc1, ts1 := openDurableServer(t, Options{DataDir: dir, Registry: reg, Parallelism: 1})
	job := submitJob(t, ts1.URL, oneLoopReq(t, 0))
	eventually(t, "the puller to reach the scheduler", func() bool { return gated.Calls.Load() == 1 })
	ts1.Close()
	svc1.Close() // the held unit stays pending: it has no result record

	close(gated.Gate)
	svc2, ts2 := openDurableServer(t, Options{DataDir: dir, Registry: reg, Parallelism: 1})
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	if done := waitJob(t, ts2.URL, job.ID); done.State != api.JobDone || done.Errors != 0 {
		t.Fatalf("resumed job = %+v", done)
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.ids) != 2 {
		t.Fatalf("schedule calls = %d, want 2 (one before the restart, one after)", len(probe.ids))
	}
	for i, id := range probe.ids {
		if id != job.ID {
			t.Errorf("call %d compiled under job ID %q, want %q", i, id, job.ID)
		}
	}
}
