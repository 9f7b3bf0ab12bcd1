package jobs

// Conformance suites for the engine's two interface seams. Every
// Queue and ResultStore implementation — the in-process queue and its
// write-ahead-log decorator, the in-process and disk-backed stores —
// must pass the same behavioural contract, so the suites take
// constructors and the per-implementation tests are one-liners.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	api "repro/api/v1"
)

// testQueueConformance runs the Queue contract against a constructor.
func testQueueConformance(t *testing.T, mk func() Queue) {
	t.Run("FIFOAndPos", func(t *testing.T) {
		// Each task leases at its admission position: one at a time,
		// and all at once.
		q := mk()
		for i := 0; i < 6; i++ {
			if err := q.Enqueue(Task{ID: fmt.Sprintf("t%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			_, tasks := q.Lease("w", 1, 0)
			if want := fmt.Sprintf("t%d", i); len(tasks) != 1 || tasks[0].ID != want {
				t.Fatalf("lease %d = %v, want %s", i+1, tasks, want)
			}
		}
		_, tasks := q.Lease("w", 3, 0)
		if len(tasks) != 3 || tasks[0].ID != "t3" || tasks[2].ID != "t5" {
			t.Errorf("lease order = %v, want FIFO t3..t5", tasks)
		}
	})

	t.Run("GroupEnqueue", func(t *testing.T) {
		// A group is admitted whole and in order, after what was
		// queued before it; a group that repeats an ID, its own or a
		// queued one, is refused whole.
		q := mk()
		if err := q.Enqueue(Task{ID: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(Task{ID: "b"}, Task{ID: "c"}, Task{ID: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(Task{ID: "e"}, Task{ID: "b"}); err == nil {
			t.Fatal("group repeating a queued ID accepted")
		}
		if err := q.Enqueue(Task{ID: "e"}, Task{ID: "f"}, Task{ID: "e"}); err == nil {
			t.Fatal("group repeating its own ID accepted")
		}
		if err := q.Enqueue(); err != nil {
			t.Fatalf("empty group: %v", err)
		}
		if st := q.Stats(); st.Pending != 4 {
			t.Fatalf("pending after refused groups = %d, want 4", st.Pending)
		}
		if err := q.Enqueue(Task{ID: "e"}, Task{ID: "f"}); err != nil {
			t.Fatalf("group after a refused one: %v", err)
		}
		_, tasks := q.Lease("w", 10, 0)
		if got, want := ids(tasks), []string{"a", "b", "c", "d", "e", "f"}; !slices.Equal(got, want) {
			t.Errorf("lease order = %v, want %v", got, want)
		}
	})

	t.Run("AckResolvesExactlyOnce", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a"})
		lease, tasks := q.Lease("w", 1, 0)
		if len(tasks) != 1 {
			t.Fatal("no lease")
		}
		if !q.Ack(lease, "a") {
			t.Fatal("first Ack refused")
		}
		if q.Ack(lease, "a") {
			t.Fatal("second Ack accepted — double resolution")
		}
		if st := q.Stats(); st.Pending != 0 || st.Leased != 0 || st.Leases != 0 {
			t.Errorf("Stats after full ack = %+v, want empty", st)
		}
	})

	t.Run("NackRequeuesForOthers", func(t *testing.T) {
		// A lapsed lease is the queue's nack: its task requeues for
		// other owners.
		q := mk()
		q.Enqueue(Task{ID: "a", Hash: "h"})
		q.Enqueue(Task{ID: "b", Hash: "other"})
		lease, _ := q.Lease("w1", 1, 10*time.Millisecond)
		if n := q.Expire(time.Now().Add(time.Minute)); n != 1 {
			t.Fatalf("expiry requeued %d tasks, want 1", n)
		}
		if q.Ack(lease, "a") {
			t.Fatal("Ack accepted after the lease lapsed")
		}
		// The requeued task must be leasable by a different owner even
		// though its hash was affinitized to w1, and ahead of b, which
		// was admitted after it.
		_, tasks := q.Lease("w2", 1, 0)
		if len(tasks) != 1 || tasks[0].ID != "a" {
			t.Fatalf("w2 lease after expiry = %v, want task a", tasks)
		}
		if st := q.Stats(); st.Requeued != 1 {
			t.Errorf("Requeued = %d, want 1", st.Requeued)
		}
	})

	t.Run("ExpiryRequeues", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a"})
		q.Enqueue(Task{ID: "b"})
		lease, tasks := q.Lease("w1", 2, 20*time.Millisecond)
		if len(tasks) != 2 {
			t.Fatal("no lease")
		}
		if n := q.Expire(time.Now()); n != 0 {
			t.Fatalf("premature expiry requeued %d tasks", n)
		}
		if !q.Heartbeat(lease) {
			t.Fatal("live lease refused a heartbeat")
		}
		if n := q.Expire(time.Now().Add(time.Minute)); n != 2 {
			t.Fatalf("expiry requeued %d tasks, want 2", n)
		}
		if q.Heartbeat(lease) {
			t.Fatal("expired lease accepted a heartbeat")
		}
		if q.Ack(lease, "a") {
			t.Fatal("expired lease acked a requeued task")
		}
		_, tasks = q.Lease("w2", 2, 0)
		if len(tasks) != 2 {
			t.Fatalf("requeued tasks not leasable: got %d", len(tasks))
		}
		if st := q.Stats(); st.Requeued != 2 {
			t.Errorf("Requeued = %d, want 2", st.Requeued)
		}
	})

	t.Run("HashAffinity", func(t *testing.T) {
		q := mk()
		// w1 claims hash h1 by leasing it first.
		q.Enqueue(Task{ID: "a", Hash: "h1"})
		l1, tasks := q.Lease("w1", 1, 0)
		if len(tasks) != 1 {
			t.Fatal("no lease")
		}
		// More h1 work arrives alongside unclaimed h2 work: a busy w2
		// must be routed around h1 (it takes h2), and w1 must get its
		// affinitized h1 unit.
		q.Enqueue(Task{ID: "b", Hash: "h1"})
		q.Enqueue(Task{ID: "c", Hash: "h2"})
		_, w2tasks := q.Lease("w2", 1, 0)
		if len(w2tasks) != 1 || w2tasks[0].ID != "c" {
			t.Fatalf("w2 leased %v, want the unclaimed h2 task c", w2tasks)
		}
		_, w1tasks := q.Lease("w1", 1, 0)
		if len(w1tasks) != 1 || w1tasks[0].ID != "b" {
			t.Fatalf("w1 leased %v, want its affinitized h1 task b", w1tasks)
		}
		_ = l1
	})

	t.Run("StealWhenStarved", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a", Hash: "h1"})
		if _, tasks := q.Lease("w1", 1, 0); len(tasks) != 1 {
			t.Fatal("no lease")
		}
		q.Enqueue(Task{ID: "b", Hash: "h1"})
		// w2 has nothing routed to it; rather than starve it steals the
		// h1 backlog and takes over the hash.
		_, stolen := q.Lease("w2", 1, 0)
		if len(stolen) != 1 || stolen[0].ID != "b" {
			t.Fatalf("w2 stole %v, want task b", stolen)
		}
		q.Enqueue(Task{ID: "c", Hash: "h1"})
		_, next := q.Lease("w2", 1, 0)
		if len(next) != 1 || next[0].ID != "c" {
			t.Fatalf("stolen hash did not re-affinitize to w2: %v", next)
		}
	})

	t.Run("ExpiryRestoresFIFO", func(t *testing.T) {
		// The requeue-order property: a crashed owner's lease of N
		// hashed tasks comes back at the front of the queue in the
		// original admission order, not scrambled.
		q := mk()
		const n = 12
		for i := 0; i < n; i++ {
			if err := q.Enqueue(Task{ID: fmt.Sprintf("t%02d", i), Hash: fmt.Sprintf("h%02d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, tasks := q.Lease("crasher", n, 10*time.Millisecond); len(tasks) != n {
			t.Fatalf("leased %d tasks, want %d", len(tasks), n)
		}
		if got := q.Expire(time.Now().Add(time.Minute)); got != n {
			t.Fatalf("Expire requeued %d, want %d", got, n)
		}
		_, tasks := q.Lease("survivor", n, 0)
		if len(tasks) != n {
			t.Fatalf("re-leased %d tasks, want %d", len(tasks), n)
		}
		for i, task := range tasks {
			if want := fmt.Sprintf("t%02d", i); task.ID != want {
				t.Fatalf("requeue order broken at %d: got %s, want %s", i, task.ID, want)
			}
		}
	})

	t.Run("StaleAffinityDoesNotStarve", func(t *testing.T) {
		q := mk()
		if mq, ok := unwrapQueue(q).(*memQueue); ok {
			mq.affinityWait = 20 * time.Millisecond
		}
		// w1 claims hash h and acks its task — then vanishes. Lease
		// expiry never clears this affinity (nothing of w1's is leased),
		// so without the wait bound the next h task would defer to w1
		// forever whenever w2 has other work available.
		q.Enqueue(Task{ID: "a", Hash: "h"})
		lease, _ := q.Lease("w1", 1, 0)
		q.Ack(lease, "a")
		q.Enqueue(Task{ID: "b", Hash: "h"})
		q.Enqueue(Task{ID: "c", Hash: "other"})
		if _, tasks := q.Lease("w2", 1, 0); len(tasks) != 1 || tasks[0].ID != "c" {
			t.Fatalf("fresh h task should still defer to w1: got %v", tasks)
		}
		time.Sleep(40 * time.Millisecond)
		_, tasks := q.Lease("w2", 1, 0)
		if len(tasks) != 1 || tasks[0].ID != "b" {
			t.Fatalf("stale-affinity task not released to w2: got %v", tasks)
		}
	})

	t.Run("WithdrawPendingOnly", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a"})
		q.Enqueue(Task{ID: "b"})
		lease, _ := q.Lease("w", 1, 0)
		if q.Withdraw("a") {
			t.Fatal("withdrew a leased task")
		}
		if !q.Withdraw("b") {
			t.Fatal("could not withdraw a pending task")
		}
		if q.Withdraw("b") {
			t.Fatal("double withdraw")
		}
		if !q.Ack(lease, "a") {
			t.Fatal("lease lost its task to a failed withdraw")
		}
	})

	t.Run("ChangedWakesOnEnqueue", func(t *testing.T) {
		q := mk()
		ch := q.Changed()
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-ch
		}()
		q.Enqueue(Task{ID: "a"})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Changed channel never closed on enqueue")
		}
	})

	t.Run("AckBatchMatchesPerTaskAck", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a"})
		q.Enqueue(Task{ID: "b"})
		q.Enqueue(Task{ID: "c"})
		lease, tasks := q.Lease("w", 3, 0)
		if len(tasks) != 3 {
			t.Fatal("no lease")
		}
		// Each element has per-task Ack semantics: unknown IDs fail
		// without poisoning the rest of the batch.
		got := q.AckBatch(lease, []string{"a", "nope", "b"})
		want := []bool{true, false, true}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AckBatch = %v, want %v", got, want)
			}
		}
		// Exactly-once holds across batches: a re-ack fails, the still
		// unacked task succeeds.
		got = q.AckBatch(lease, []string{"a", "c"})
		if got[0] || !got[1] {
			t.Fatalf("re-ack batch = %v, want [false true]", got)
		}
		if st := q.Stats(); st.Pending != 0 || st.Leased != 0 || st.Leases != 0 {
			t.Errorf("Stats after full batch ack = %+v, want empty", st)
		}
	})

	t.Run("AckBatchRefusedAfterExpiry", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a"})
		q.Enqueue(Task{ID: "b"})
		lease, _ := q.Lease("w", 2, 10*time.Millisecond)
		if n := q.Expire(time.Now().Add(time.Minute)); n != 2 {
			t.Fatalf("expiry requeued %d, want 2", n)
		}
		for i, ok := range q.AckBatch(lease, []string{"a", "b"}) {
			if ok {
				t.Errorf("expired lease batch-acked element %d", i)
			}
		}
		if _, tasks := q.Lease("w2", 2, 0); len(tasks) != 2 {
			t.Fatal("requeued tasks lost to a dead batch ack")
		}
	})

	t.Run("HeldReportsLease", func(t *testing.T) {
		// Held names the lease's owner and its unacked tasks in
		// admission order, shrinks as tasks are acked, and reports
		// nothing once the lease is completed, overdue or swept.
		q := mk()
		var want []string
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("t%02d", i)
			q.Enqueue(Task{ID: id, Hash: fmt.Sprintf("h%d", i)})
			want = append(want, id)
		}
		lease, tasks := q.Lease("w1", len(want), time.Minute)
		if len(tasks) != len(want) {
			t.Fatalf("leased %d tasks, want %d", len(tasks), len(want))
		}
		held := func() []string {
			t.Helper()
			owner, tasks := q.Held(lease)
			if len(tasks) > 0 && owner != "w1" {
				t.Fatalf("Held owner = %q, want w1", owner)
			}
			return ids(tasks)
		}
		if got := held(); !slices.Equal(got, want) {
			t.Fatalf("Held = %v, want %v", got, want)
		}
		q.AckBatch(lease, []string{"t03", "t07"})
		q.Ack(lease, "t11")
		want = slices.DeleteFunc(want, func(id string) bool { return id == "t03" || id == "t07" || id == "t11" })
		if got := held(); !slices.Equal(got, want) {
			t.Fatalf("Held after acks = %v, want %v", got, want)
		}
		q.AckBatch(lease, want)
		if owner, tasks := q.Held(lease); owner != "" || tasks != nil {
			t.Fatalf("completed lease holds %q %v", owner, tasks)
		}

		q.Enqueue(Task{ID: "x"}, Task{ID: "y"})
		short, _ := q.Lease("w2", 2, time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		if owner, tasks := q.Held(short); owner != "" || tasks != nil {
			t.Fatalf("overdue lease holds %q %v", owner, tasks)
		}
		q.Expire(time.Now())
		if owner, tasks := q.Held(short); owner != "" || tasks != nil {
			t.Fatalf("expired lease holds %q %v", owner, tasks)
		}
		if owner, tasks := q.Held("no-such-lease"); owner != "" || tasks != nil {
			t.Fatalf("unknown lease holds %q %v", owner, tasks)
		}
	})

	t.Run("LeaseFilteredSkipsIneligible", func(t *testing.T) {
		q := mk()
		q.Enqueue(Task{ID: "a", Payload: "exact"})
		q.Enqueue(Task{ID: "b", Payload: "dms"})
		q.Enqueue(Task{ID: "c", Payload: "exact"})
		onlyDMS := func(task Task) bool { return task.Payload == "dms" }
		_, tasks := q.LeaseFiltered("w1", 3, 0, onlyDMS)
		if len(tasks) != 1 || tasks[0].ID != "b" {
			t.Fatalf("filtered lease = %v, want just b", tasks)
		}
		// The skipped tasks are untouched: a wildcard worker still gets
		// them, in admission order.
		_, rest := q.LeaseFiltered("w2", 3, 0, nil)
		if len(rest) != 2 || rest[0].ID != "a" || rest[1].ID != "c" {
			t.Fatalf("unfiltered lease = %v, want [a c]", rest)
		}
	})

	t.Run("LeaseFilteredRespectsAffinity", func(t *testing.T) {
		q := mk()
		// w1 owns hash h via a plain lease; filtered leases must not
		// hand w2 the affinitized follow-up while other work exists.
		q.Enqueue(Task{ID: "a", Hash: "h"})
		if _, tasks := q.Lease("w1", 1, 0); len(tasks) != 1 {
			t.Fatal("no lease")
		}
		q.Enqueue(Task{ID: "b", Hash: "h"})
		q.Enqueue(Task{ID: "c", Hash: "other"})
		_, tasks := q.LeaseFiltered("w2", 1, 0, func(Task) bool { return true })
		if len(tasks) != 1 || tasks[0].ID != "c" {
			t.Fatalf("filtered lease = %v, want the unclaimed c", tasks)
		}
	})

	t.Run("ConcurrentLeaseNoDuplicates", func(t *testing.T) {
		q := mk()
		const n = 200
		for i := 0; i < n; i++ {
			q.Enqueue(Task{ID: fmt.Sprintf("t%d", i), Hash: fmt.Sprintf("h%d", i%17)})
		}
		var mu sync.Mutex
		seen := make(map[string]int)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				owner := fmt.Sprintf("w%d", w)
				for {
					lease, tasks := q.Lease(owner, 5, time.Minute)
					if len(tasks) == 0 {
						return
					}
					mu.Lock()
					for _, task := range tasks {
						seen[task.ID]++
					}
					mu.Unlock()
					for _, task := range tasks {
						if !q.Ack(lease, task.ID) {
							t.Errorf("live lease refused ack of %s", task.ID)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if len(seen) != n {
			t.Fatalf("leased %d distinct tasks, want %d", len(seen), n)
		}
		for id, count := range seen {
			if count != 1 {
				t.Errorf("task %s leased %d times", id, count)
			}
		}
	})
}

// unwrapQueue strips the WAL decorator off a queue so suite tweaks
// that need the concrete in-process queue still reach it.
func unwrapQueue(q Queue) Queue {
	if w, ok := q.(*WALQueue); ok {
		return w.inner
	}
	return q
}

func TestMemQueueConformance(t *testing.T) {
	testQueueConformance(t, func() Queue { return NewMemQueue() })
}

// TestWALQueueConformance holds the write-ahead-log decorator to the
// exact same behavioural contract as the queue it wraps.
func TestWALQueueConformance(t *testing.T) {
	testQueueConformance(t, func() Queue {
		w, err := NewWALQueue(NewMemQueue(), t.TempDir(), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w
	})
}

// testStoreConformance runs the ResultStore contract against a
// constructor.
func testStoreConformance(t *testing.T, mk func() ResultStore) {
	t.Run("CreateGetDrop", func(t *testing.T) {
		s := mk()
		b := s.Create("j1")
		got, ok := s.Get("j1")
		if !ok || got != b {
			t.Fatal("Get lost the created buffer")
		}
		if _, ok := s.Get("j2"); ok {
			t.Fatal("Get invented a buffer")
		}
		if s.Len() != 1 {
			t.Errorf("Len = %d, want 1", s.Len())
		}
		s.Drop("j1")
		if _, ok := s.Get("j1"); ok {
			t.Fatal("dropped buffer still indexed")
		}
		s.Drop("j1") // idempotent
		if s.Len() != 0 {
			t.Errorf("Len = %d after drop, want 0", s.Len())
		}
	})

	t.Run("AppendOrderAndOffsets", func(t *testing.T) {
		s := mk()
		b := s.Create("j")
		for i := 0; i < 5; i++ {
			b.Append(api.JobResult{Index: i})
		}
		recs := decode(t, b.Results(0))
		if len(recs) != 5 {
			t.Fatalf("Results(0) = %d recs", len(recs))
		}
		for i, rec := range recs {
			if rec.Index != i {
				t.Errorf("rec %d has index %d (order lost)", i, rec.Index)
			}
		}
		if recs := decode(t, b.Results(3)); len(recs) != 2 || recs[0].Index != 3 {
			t.Errorf("Results(3) = %+v", recs)
		}
		if recs := b.Results(99); recs != nil {
			t.Errorf("Results past the end = %+v, want nil", recs)
		}
		if recs := b.Results(-1); len(recs) != 5 {
			t.Errorf("Results(-1) = %d recs, want the full buffer", len(recs))
		}
	})

	t.Run("StatsCount", func(t *testing.T) {
		s := mk()
		b := s.Create("j")
		recs := []api.JobResult{
			{Job: "ok", Schedule: "t=0 c=0 mem x\n"},
			{Job: "bad", Error: "boom"},
			{Job: "hit", Cached: true},
		}
		var want int64
		for _, rec := range recs {
			b.Append(rec)
			want += int64(len(mustJSON(rec)) + 1)
		}
		st := b.Stats()
		if st.Results != 3 || st.Errors != 1 || st.Cached != 1 {
			t.Errorf("Stats = %+v", st)
		}
		if st.Bytes != want {
			t.Errorf("Bytes = %d, want the %d bytes of the encoded lines", st.Bytes, want)
		}
		for i, line := range b.Results(0) {
			if wantLine := string(mustJSON(recs[i])) + "\n"; string(line) != wantLine {
				t.Errorf("line %d = %q, want %q", i, line, wantLine)
			}
		}
	})

	t.Run("DroppedBufferStaysReadable", func(t *testing.T) {
		s := mk()
		b := s.Create("j")
		b.Append(api.JobResult{Index: 0})
		s.Drop("j")
		if recs := b.Results(0); len(recs) != 1 {
			t.Errorf("held buffer unreadable after drop: %d recs", len(recs))
		}
	})

	t.Run("ConcurrentAppendsAndReads", func(t *testing.T) {
		s := mk()
		const jobs, per = 16, 50
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			b := s.Create(fmt.Sprintf("j%d", j))
			wg.Add(2)
			go func(b *Buffer) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					b.Append(api.JobResult{Index: i})
				}
			}(b)
			go func(b *Buffer) {
				defer wg.Done()
				for b.Stats().Results < per {
					b.Results(0)
				}
			}(b)
		}
		wg.Wait()
		if s.Len() != jobs {
			t.Fatalf("Len = %d, want %d", s.Len(), jobs)
		}
		for j := 0; j < jobs; j++ {
			b, ok := s.Get(fmt.Sprintf("j%d", j))
			if !ok {
				t.Fatalf("job %d lost", j)
			}
			if n := b.Stats().Results; n != per {
				t.Errorf("job %d has %d results, want %d", j, n, per)
			}
		}
	})
}

func TestMemStoreConformance(t *testing.T) {
	testStoreConformance(t, NewMemStore)
}

func TestDiskStoreConformance(t *testing.T) {
	testStoreConformance(t, func() ResultStore {
		s, err := NewDiskStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestDiskStoreConformanceFsync reruns the store contract under the
// fsync-each-append policy — the durability knob must not change
// observable behaviour, only crash guarantees.
func TestDiskStoreConformanceFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("fsync per append in -short mode")
	}
	testStoreConformance(t, func() ResultStore {
		s, err := NewDiskStore(t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}
