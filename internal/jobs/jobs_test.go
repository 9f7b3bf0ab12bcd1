package jobs

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	api "repro/api/v1"
)

// runN drives a submitted job the way the server's dispatcher does:
// Start, n trivially numbered results, Finish.
func runN(j *Job, n int) {
	j.Start()
	for i := 0; i < n; i++ {
		j.Append(api.JobResult{Index: i, Job: fmt.Sprintf("j%d", i)})
	}
	j.Finish()
}

// submitN admits a job of n results and runs it to done.
func submitN(t *testing.T, e *Engine, n int) *Job {
	t.Helper()
	j := submit(t, e, n)
	runN(j, n)
	return j
}

// submit admits a job of n results and leaves it queued.
func submit(t *testing.T, e *Engine, n int) *Job {
	t.Helper()
	j, err := e.Submit(n)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestEngineLifecycle(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	j := submitN(t, e, 3)
	if state, err := j.Wait(context.Background()); err != nil || state != api.JobDone {
		t.Fatalf("Wait = %v, %v; want done", state, err)
	}
	lines, state := j.Results(0)
	recs := decode(t, lines)
	if len(recs) != 3 || state != api.JobDone {
		t.Fatalf("Results = %d recs, state %v", len(recs), state)
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Errorf("rec %d has index %d", i, rec.Index)
		}
	}
	// Offsets resume mid-buffer; past-the-end is empty, not a panic.
	if lines, _ := j.Results(2); len(lines) != 1 || decode(t, lines)[0].Index != 2 {
		t.Errorf("Results(2) = %q", lines)
	}
	if recs, _ := j.Results(17); len(recs) != 0 {
		t.Errorf("Results(17) = %+v", recs)
	}
	if sum := j.Summary(); sum != (api.Summary{Jobs: 3}) {
		t.Errorf("Summary = %+v", sum)
	}

	snap := j.Snapshot()
	if snap.State != api.JobDone || snap.Jobs != 3 || snap.Done != 3 || snap.ID != j.ID() {
		t.Errorf("Snapshot = %+v", snap)
	}
	if snap.CreatedUnixMS == 0 || snap.StartedUnixMS == 0 || snap.FinishedUnixMS == 0 {
		t.Errorf("missing lifecycle timestamps: %+v", snap)
	}

	if got, ok := e.Get(j.ID()); !ok || got != j {
		t.Error("Get lost the finished job before its TTL")
	}
	m := e.Metrics()
	if m.Admitted != 1 || m.Completed != 1 || m.Retained != 1 || m.Depth != 0 || m.Running != 0 {
		t.Errorf("Metrics = %+v", m)
	}
	if m.EWMAServiceMS <= 0 {
		t.Errorf("EWMAServiceMS = %v after a completed job, want > 0", m.EWMAServiceMS)
	}
}

// TestEngineStartTransitions: Start moves a queued job to running
// exactly once, the gauges follow, and a second Start is a no-op.
func TestEngineStartTransitions(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	j := submit(t, e, 1)
	if m := e.Metrics(); m.Depth != 1 || m.Running != 0 {
		t.Fatalf("queued: Metrics = %+v, want depth 1, running 0", m)
	}
	j.Start()
	started := j.Snapshot()
	if started.State != api.JobRunning || started.StartedUnixMS == 0 || started.QueuePos != 0 {
		t.Fatalf("after Start: %+v", started)
	}
	if m := e.Metrics(); m.Depth != 0 || m.Running != 1 {
		t.Fatalf("running: Metrics = %+v, want depth 0, running 1", m)
	}
	j.Start()
	if m := e.Metrics(); m.Running != 1 {
		t.Fatalf("second Start counted again: Metrics = %+v", m)
	}
	j.Append(api.JobResult{})
	j.Finish()
	j.Start()
	if state := j.Snapshot().State; state != api.JobDone {
		t.Fatalf("Start after Finish moved the job to %s", state)
	}
	if m := e.Metrics(); m.Depth != 0 || m.Running != 0 || m.Completed != 1 {
		t.Fatalf("done: Metrics = %+v", m)
	}
}

// TestEngineAdmissionControl saturates a capacity-1 engine and checks
// the rejection counter, the queue-position gauge, and that a started
// job frees its queue slot.
func TestEngineAdmissionControl(t *testing.T) {
	e := New(Options{Capacity: 1})
	defer e.Close()

	running := submit(t, e, 1)
	running.Start() // leaves the queue, so the next submit fits

	queued := submit(t, e, 1)
	if pos := queued.Snapshot().QueuePos; pos != 1 {
		t.Errorf("queued job position = %d, want 1", pos)
	}
	if _, err := e.Submit(1); err != ErrQueueFull {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.Rejected != 1 || m.Depth != 1 || m.Running != 1 || m.Capacity != 1 {
		t.Errorf("Metrics = %+v", m)
	}

	runN(queued, 1)
	if state, err := queued.Wait(context.Background()); err != nil || state != api.JobDone {
		t.Fatalf("queued job after its turn: %v, %v", state, err)
	}
	if _, err := e.Submit(1); err != nil {
		t.Fatalf("submit after the queue emptied: %v", err)
	}
}

// TestEngineQueuePos: the position is 1-based among queued jobs in
// admission order, and closes up as jobs ahead start or are canceled.
func TestEngineQueuePos(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	a, b, c := submit(t, e, 1), submit(t, e, 1), submit(t, e, 1)
	for i, j := range []*Job{a, b, c} {
		if pos := j.Snapshot().QueuePos; pos != i+1 {
			t.Errorf("job %d position = %d, want %d", i, pos, i+1)
		}
	}
	b.Start()
	if pos := c.Snapshot().QueuePos; pos != 2 {
		t.Errorf("after the middle job started: last position = %d, want 2", pos)
	}
	e.Cancel(a.ID())
	if pos := c.Snapshot().QueuePos; pos != 1 {
		t.Errorf("after the head was canceled: last position = %d, want 1", pos)
	}
	if pos := b.Snapshot().QueuePos; pos != 0 {
		t.Errorf("running job position = %d, want 0", pos)
	}
}

// TestEngineCancelQueuedNeverRuns is the admission-control safety
// property: a job canceled while still queued is terminal at once,
// its context is canceled, and its producer can no longer start it or
// add results to it.
func TestEngineCancelQueuedNeverRuns(t *testing.T) {
	e := New(Options{Capacity: 4})
	defer e.Close()

	victim := submit(t, e, 1)
	if got, ok := e.Cancel(victim.ID()); !ok || got != victim {
		t.Fatal("Cancel did not find the queued job")
	}
	if state := victim.Snapshot().State; state != api.JobCanceled {
		t.Fatalf("canceled queued job state = %v", state)
	}
	select {
	case <-victim.Context().Done():
	default:
		t.Fatal("canceled queued job's context is still live")
	}

	// The producer, racing the cancel, cannot revive the job.
	runN(victim, 1)
	if snap := victim.Snapshot(); snap.State != api.JobCanceled || snap.StartedUnixMS != 0 || snap.Done != 0 {
		t.Fatalf("canceled queued job after its producer ran: %+v", snap)
	}
	if m := e.Metrics(); m.Canceled != 1 || m.Completed != 0 || m.Depth != 0 || m.Running != 0 {
		t.Errorf("Metrics = %+v", m)
	}
	// Canceling a terminal job is an idempotent no-op.
	if _, ok := e.Cancel(victim.ID()); !ok {
		t.Error("second Cancel lost the job")
	}
	if m := e.Metrics(); m.Canceled != 1 {
		t.Errorf("double cancel double-counted: %+v", m)
	}
}

// TestEngineMaxRetainedBytes: the byte bound on retained results
// collects the oldest finished jobs before their TTL, so unfetched
// large result sets cannot pin the heap.
func TestEngineMaxRetainedBytes(t *testing.T) {
	big := strings.Repeat("t=0 c=0 mem x\n", 64) // ~900 B of schedule per result
	e := New(Options{TTL: time.Hour, MaxFinished: 1000, MaxRetainedBytes: 4096})
	defer e.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		j := submit(t, e, 1)
		j.Start()
		j.Append(api.JobResult{Job: "big", Schedule: big})
		j.Finish()
		ids = append(ids, j.ID())
	}
	m := e.Metrics()
	if m.RetainedBytes > 4096 {
		t.Errorf("RetainedBytes = %d, want <= 4096", m.RetainedBytes)
	}
	if m.Retained >= 6 {
		t.Errorf("Retained = %d, want the byte bound to have evicted some of 6", m.Retained)
	}
	if _, ok := e.Get(ids[0]); ok {
		t.Error("oldest oversize job survived the byte bound")
	}
	if _, ok := e.Get(ids[5]); !ok {
		t.Error("newest job was collected instead of the oldest")
	}
}

// TestEngineCancelRunning: cancellation reaches a running job through
// its context, the job is canceled at once, and a result racing the
// cancel is dropped rather than changing the settled result set.
func TestEngineCancelRunning(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	j := submit(t, e, 2)
	j.Start()
	j.Append(api.JobResult{Index: 0})
	e.Cancel(j.ID())
	select {
	case <-j.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not reach the running job's context")
	}
	state, err := j.Wait(context.Background())
	if err != nil || state != api.JobCanceled {
		t.Fatalf("Wait = %v, %v; want canceled", state, err)
	}
	sum := j.Summary()
	j.Append(api.JobResult{Index: 1, Error: "context canceled", ErrorCode: api.CodeCanceled})
	j.Finish()
	if recs, state := j.Results(0); len(recs) != 1 || state != api.JobCanceled {
		t.Errorf("canceled job = %d results, %s; want the 1 appended before the cancel, still canceled", len(recs), state)
	}
	if got := j.Summary(); got != sum {
		t.Errorf("summary changed after the terminal transition: %+v, then %+v", sum, got)
	}
	if m := e.Metrics(); m.Running != 0 || m.Canceled != 1 || m.Completed != 0 {
		t.Errorf("Metrics = %+v", m)
	}
}

// TestEngineAppendRacesCancel: results appended from several
// goroutines while the job is canceled either land before the terminal
// transition or not at all, so the result set a reader sees once the
// job is terminal never changes afterwards.
func TestEngineAppendRacesCancel(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	const appenders, each = 4, 200
	j := submit(t, e, appenders*each)
	j.Start()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Append(api.JobResult{Index: a*each + i})
				runtime.Gosched() // spread the appends across the cancel
			}
		}(a)
	}
	for {
		if recs, _ := j.Results(0); len(recs) >= appenders {
			break
		}
		runtime.Gosched()
	}
	e.Cancel(j.ID())
	recs, state := j.Results(0)
	if state != api.JobCanceled {
		t.Fatalf("state after Cancel = %s", state)
	}
	wg.Wait()
	if after, _ := j.Results(0); len(after) != len(recs) {
		t.Fatalf("results grew after the terminal transition: %d, then %d", len(recs), len(after))
	}
	if sum := j.Summary(); sum.Jobs != len(recs) {
		t.Fatalf("summary counts %d results, the terminal read saw %d", sum.Jobs, len(recs))
	}
}

// TestEngineStreamingFollowsLiveBuffer: a reader following Changed
// sees every result exactly once, across the running→done transition.
func TestEngineStreamingFollowsLiveBuffer(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	const n = 100
	j := submit(t, e, n)
	step := make(chan struct{}, n)
	go func() {
		j.Start()
		for i := 0; i < n; i++ {
			<-step
			j.Append(api.JobResult{Index: i})
		}
		j.Finish()
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	var got []api.JobResult
	go func() {
		defer wg.Done()
		from := 0
		for {
			ch := j.Changed()
			lines, state := j.Results(from)
			got = append(got, decode(t, lines)...)
			from += len(lines)
			if state.Terminal() {
				return
			}
			<-ch
		}
	}()
	for i := 0; i < n; i++ {
		step <- struct{}{}
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("streamed %d results, want %d", len(got), n)
	}
	for i, rec := range got {
		if rec.Index != i {
			t.Fatalf("result %d has index %d (duplicate or loss)", i, rec.Index)
		}
	}
}

// TestEngineTTLGC: finished jobs vanish after their TTL; live jobs are
// never collected.
func TestEngineTTLGC(t *testing.T) {
	e := New(Options{TTL: 20 * time.Millisecond})
	defer e.Close()

	live := submit(t, e, 1)
	j := submitN(t, e, 1)
	if _, ok := e.Get(j.ID()); !ok {
		t.Fatal("job collected before its TTL")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := e.Get(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never garbage-collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := e.Metrics(); m.Retained != 0 {
		t.Errorf("Retained = %d after GC", m.Retained)
	}
	if _, ok := e.Get(live.ID()); !ok {
		t.Error("a live job was garbage-collected")
	}
}

// TestEngineMaxFinishedBound: the retained-jobs bound collects the
// oldest finished jobs before their TTL.
func TestEngineMaxFinishedBound(t *testing.T) {
	e := New(Options{MaxFinished: 2, TTL: time.Hour})
	defer e.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submitN(t, e, 1).ID())
	}
	// Trigger a sweep.
	if m := e.Metrics(); m.Retained > 2 {
		t.Fatalf("Retained = %d, want <= 2", m.Retained)
	}
	for _, id := range ids[:3] {
		if _, ok := e.Get(id); ok {
			t.Errorf("old job %s survived the retained bound", id)
		}
	}
	if _, ok := e.Get(ids[4]); !ok {
		t.Error("newest finished job was collected")
	}
}

// TestEngineRelease: a released job is dropped from the table as soon
// as it is terminal — immediately if it already is, at its terminal
// transition if it is still running — so unaddressable jobs never
// occupy retention slots; holders of the *Job keep reading it.
func TestEngineRelease(t *testing.T) {
	e := New(Options{})
	defer e.Close()

	// Release after completion: dropped immediately.
	j := submitN(t, e, 2)
	if m := e.Metrics(); m.Retained != 1 {
		t.Fatalf("Retained = %d before release", m.Retained)
	}
	e.Release(j.ID())
	if _, ok := e.Get(j.ID()); ok {
		t.Error("released terminal job still addressable")
	}
	if m := e.Metrics(); m.Retained != 0 {
		t.Errorf("Retained = %d after release", m.Retained)
	}
	if recs, state := j.Results(0); len(recs) != 2 || state != api.JobDone {
		t.Errorf("held *Job unreadable after release: %d recs, %v", len(recs), state)
	}

	// Release while running: dropped at the terminal transition.
	running := submit(t, e, 1)
	running.Start()
	e.Release(running.ID())
	if _, ok := e.Get(running.ID()); !ok {
		t.Fatal("released running job dropped before it finished")
	}
	running.Append(api.JobResult{})
	running.Finish()
	if _, ok := e.Get(running.ID()); ok {
		t.Fatal("released running job was retained after finishing")
	}
	if m := e.Metrics(); m.Retained != 0 {
		t.Errorf("Retained = %d, want 0", m.Retained)
	}
}

// TestEngineCloseCancelsRunning: Close cancels a running job's context
// and finishes it as canceled, so a producer that only stops on
// cancellation cannot wedge shutdown.
func TestEngineCloseCancelsRunning(t *testing.T) {
	e := New(Options{})

	j := submit(t, e, 1)
	j.Start()
	stuck := make(chan struct{})
	go func() {
		<-j.Context().Done() // exits only on cancellation — a stuck batch
		close(stuck)
	}()

	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	for _, ch := range []chan struct{}{done, stuck} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not cancel the running job")
		}
	}
	if state := j.Snapshot().State; state != api.JobCanceled {
		t.Errorf("running job finished as %s after Close, want canceled", state)
	}
}

// TestEngineCloseDrainsQueue: Close cancels queued jobs before they
// start, and later submissions fail with ErrClosed.
func TestEngineCloseDrainsQueue(t *testing.T) {
	e := New(Options{})

	queued := submit(t, e, 1)
	e.Close()
	runN(queued, 1) // a producer racing Close cannot start it
	if snap := queued.Snapshot(); snap.State != api.JobCanceled || snap.StartedUnixMS != 0 || snap.Done != 0 {
		t.Errorf("queued job after Close = %+v, want canceled, never started", snap)
	}
	if m := e.Metrics(); m.Depth != 0 || m.Canceled != 1 {
		t.Errorf("Metrics after Close = %+v", m)
	}
	if _, err := e.Submit(1); err != ErrClosed {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestJobGroupAppend: a group of results lands in order under one
// broadcast, and after the terminal transition a group is dropped
// whole.
func TestJobGroupAppend(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	j := submit(t, e, 5)
	j.Start()
	ch := j.Changed()
	j.Append(api.JobResult{Index: 2}, api.JobResult{Index: 0, Error: "boom"}, api.JobResult{Index: 1, Cached: true})
	select {
	case <-ch:
	default:
		t.Fatal("group Append woke no waiter")
	}
	ch = j.Changed()
	j.Append()
	select {
	case <-ch:
		t.Fatal("empty Append woke the waiters")
	default:
	}
	lines, _ := j.Results(0)
	recs := decode(t, lines)
	if len(recs) != 3 || recs[0].Index != 2 || recs[1].Index != 0 || recs[2].Index != 1 {
		t.Fatalf("results after the group = %+v, want indices 2 0 1", recs)
	}
	if snap := j.Snapshot(); snap.Done != 3 || snap.Errors != 1 || snap.Cached != 1 {
		t.Fatalf("snapshot after the group = %+v", snap)
	}
	e.Cancel(j.ID())
	j.Append(api.JobResult{Index: 3}, api.JobResult{Index: 4})
	if recs, _ := j.Results(0); len(recs) != 3 {
		t.Errorf("group appended after cancel: %d results, want 3", len(recs))
	}
}

// TestJobContextCarriesID pins the JobID context plumbing: a job's
// context, and any context derived from it, carries the job's ID, so
// external dispatch state keyed by it survives a restart.
func TestJobContextCarriesID(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	j := submit(t, e, 1)
	ctx, cancel := context.WithTimeout(j.Context(), time.Minute)
	defer cancel()
	if id := JobID(ctx); id != j.ID() {
		t.Fatalf("JobID(ctx) = %q, want %q", id, j.ID())
	}
	if JobID(context.Background()) != "" {
		t.Fatal("JobID outside a job context should be empty")
	}
}

// TestEngineCancelRunsHookFirst pins the OnCancel contract: Cancel
// runs the producer's hook after the job's context is canceled and
// before the job turns terminal, so whatever the hook withdraws is gone
// by the time anyone sees the canceled state. Close and a Cancel of a
// finished job never run it.
func TestEngineCancelRunsHookFirst(t *testing.T) {
	e := New(Options{})
	j := submit(t, e, 1)
	calls := 0
	j.OnCancel(func() {
		calls++
		if j.Context().Err() == nil {
			t.Error("hook ran before the job's context was canceled")
		}
		if st := j.Snapshot().State; st.Terminal() {
			t.Errorf("hook ran after the terminal transition (state %s)", st)
		}
	})
	if _, ok := e.Cancel(j.ID()); !ok {
		t.Fatal("Cancel: job unknown")
	}
	if calls != 1 || j.Snapshot().State != api.JobCanceled {
		t.Fatalf("after Cancel: hook calls %d, state %s; want 1, canceled", calls, j.Snapshot().State)
	}
	e.Cancel(j.ID())
	if calls != 1 {
		t.Errorf("Cancel of a terminal job ran the hook again (%d calls)", calls)
	}

	done := submit(t, e, 1)
	done.OnCancel(func() { t.Error("hook of a finished job ran") })
	done.Start()
	done.Append(api.JobResult{})
	done.Finish()
	e.Cancel(done.ID())

	live := submit(t, e, 1)
	live.OnCancel(func() { t.Error("Close ran a job's cancel hook") })
	e.Close()
	if st := live.Snapshot().State; st != api.JobCanceled {
		t.Errorf("job after Close = %s, want canceled", st)
	}
}

// gatedStore is a ResultStore whose first Create blocks until gate
// closes: a disk stalled under the segment open.
type gatedStore struct {
	ResultStore
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *gatedStore) Create(id string) *Buffer {
	first := false
	s.once.Do(func() { first = true })
	if first {
		close(s.entered)
		<-s.gate
	}
	return s.ResultStore.Create(id)
}

// TestSubmitCreatesBufferOffLock: a Submit whose store stalls creating
// the job's buffer holds no engine lock meanwhile. Metrics, Get and a
// second Submit all return while the first Submit is still inside
// Create, and the stalled slot still counts against Capacity.
func TestSubmitCreatesBufferOffLock(t *testing.T) {
	st := &gatedStore{ResultStore: NewMemStore(), gate: make(chan struct{}), entered: make(chan struct{})}
	var release sync.Once
	open := func() { release.Do(func() { close(st.gate) }) }
	e := New(Options{Store: st, Capacity: 2})
	t.Cleanup(e.Close)
	t.Cleanup(open)
	first := make(chan *Job, 1)
	go func() {
		j, err := e.Submit(1)
		if err != nil {
			t.Error(err)
		}
		first <- j
	}()
	<-st.entered

	returned := make(chan struct{})
	var second *Job
	var secondErr, thirdErr error
	go func() {
		defer close(returned)
		e.Metrics()
		e.Get("unknown")
		second, secondErr = e.Submit(1)
		_, thirdErr = e.Submit(1)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Metrics, Get or Submit blocked behind a stalled Create")
	}
	if secondErr != nil || second == nil {
		t.Fatalf("second Submit = %v, %v", second, secondErr)
	}
	if thirdErr != ErrQueueFull {
		t.Fatalf("third Submit = %v, want ErrQueueFull: the stalled Submit holds a slot", thirdErr)
	}
	open()
	if j := <-first; j == nil || j.Snapshot().State != api.JobQueued {
		t.Fatalf("stalled Submit = %+v", j)
	}
	if m := e.Metrics(); m.Depth != 2 || m.Admitted != 2 || m.Rejected != 1 {
		t.Fatalf("metrics = %+v, want 2 queued, 2 admitted, 1 rejected", m)
	}
}

// dropGatedStore is a ResultStore whose Drop blocks until gate
// closes: a disk stalled removing an evicted job's segment.
type dropGatedStore struct {
	ResultStore
	gate    chan struct{}
	entered chan string
}

func (s *dropGatedStore) Drop(id string) {
	s.entered <- id
	<-s.gate
	s.ResultStore.Drop(id)
}

// TestRetentionDropsOffLock: a job evicted by retention has its buffer
// dropped after the engine lock is released. While the store stalls
// in that Drop, Metrics, Get and Submit all return.
func TestRetentionDropsOffLock(t *testing.T) {
	st := &dropGatedStore{ResultStore: NewMemStore(), gate: make(chan struct{}), entered: make(chan string, 1)}
	var release sync.Once
	open := func() { release.Do(func() { close(st.gate) }) }
	e := New(Options{Store: st, MaxFinished: 1})
	t.Cleanup(e.Close)
	t.Cleanup(open)
	first := submitN(t, e, 1)
	second := submit(t, e, 1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		runN(second, 1) // the second finish evicts the first job
	}()
	select {
	case id := <-st.entered:
		if id != first.ID() {
			t.Fatalf("Drop(%s), want the evicted first job %s", id, first.ID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the second finish evicted nothing")
	}

	returned := make(chan struct{})
	var m api.QueueMetrics
	var gotFirst bool
	var third *Job
	var thirdErr error
	go func() {
		defer close(returned)
		m = e.Metrics()
		_, gotFirst = e.Get(first.ID())
		third, thirdErr = e.Submit(1)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Metrics, Get or Submit blocked behind a stalled Drop")
	}
	if m.Retained != 1 || gotFirst {
		t.Fatalf("while the drop stalls: retained %d, first job addressable %v; want 1, false", m.Retained, gotFirst)
	}
	if thirdErr != nil || third == nil {
		t.Fatalf("Submit = %v, %v", third, thirdErr)
	}
	open()
	<-finished
	if _, ok := st.Get(first.ID()); ok {
		t.Fatal("evicted buffer still in the store")
	}
}

// TestEngineRecoverFinished: a terminal job restored from a durable
// store serves polls, streams, and summaries exactly like one that
// finished in-process, and honors the retention TTL from recovery.
func TestEngineRecoverFinished(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(Options{Store: ds})
	j1 := submitN(t, e1, 3)
	e1.Close()
	ds.Close()

	// "Restart": fresh store over the same dir, fresh engine, adopt.
	ds2, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	e2 := New(Options{Store: ds2})
	defer e2.Close()
	j2, err := e2.RecoverFinished(j1.ID(), 3, api.JobDone, "")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e2.Get(j1.ID())
	if !ok || got != j2 {
		t.Fatal("recovered job not registered")
	}
	recs, state := j2.Results(0)
	if state != api.JobDone || len(recs) != 3 {
		t.Fatalf("recovered job: state %v, %d recs", state, len(recs))
	}
	if sum := j2.Summary(); sum.Jobs != 3 {
		t.Fatalf("recovered summary = %+v", sum)
	}
	if m := e2.Metrics(); m.Retained != 1 {
		t.Fatalf("Retained = %d, want 1", m.Retained)
	}
	// Double recovery of the same ID is rejected, not silently merged.
	if _, err := e2.RecoverFinished(j1.ID(), 3, api.JobDone, ""); err == nil {
		t.Fatal("duplicate recovery accepted")
	}
	// A non-terminal state is a caller bug.
	if _, err := e2.RecoverFinished("other", 1, api.JobRunning, ""); err == nil {
		t.Fatal("RecoverFinished accepted a non-terminal state")
	}
}

// TestEngineRecoverResumes: a recovered in-flight job comes back
// queued under its own ID, with the restored results in its buffer;
// its producer adds the missing ones and it finishes with the union.
func TestEngineRecoverResumes(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the pre-crash process: buffer with 1 of 3 results.
	ds.Create("job-r").Append(api.JobResult{Index: 0, Job: "persisted"})
	ds.Close()

	ds2, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	e := New(Options{Store: ds2})
	defer e.Close()
	j, err := e.Recover("job-r", 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap := j.Snapshot(); snap.State != api.JobQueued || snap.QueuePos != 1 || snap.Done != 1 {
		t.Fatalf("recovered job = %+v, want queued at 1 with the persisted result", snap)
	}
	if JobID(j.Context()) != "job-r" {
		t.Error("recovered job's context lost its ID")
	}
	if _, err := e.Recover("job-r", 3); err == nil {
		t.Fatal("duplicate recovery accepted")
	}
	j.Start()
	j.Append(api.JobResult{Index: 1, Job: "fresh"})
	j.Append(api.JobResult{Index: 2, Job: "fresh"})
	j.Finish()
	if state, err := j.Wait(context.Background()); err != nil || state != api.JobDone {
		t.Fatalf("Wait = %v, %v", state, err)
	}
	lines, _ := j.Results(0)
	recs := decode(t, lines)
	if len(recs) != 3 || recs[0].Job != "persisted" || recs[2].Job != "fresh" {
		t.Fatalf("resumed job results = %+v", recs)
	}
}
