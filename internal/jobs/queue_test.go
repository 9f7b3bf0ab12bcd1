package jobs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestAffinityEvictionBounded pins the routing-table bound down to a
// bounded eviction: when a new hash arrives at a full table, only a
// small batch of old routes may go — not the whole table. (The table
// used to reset wholesale, which migrated every in-flight hash to
// whichever owners leased next and discarded the fleet's cache warmth
// in one step.)
func TestAffinityEvictionBounded(t *testing.T) {
	q := NewMemQueue(0).(*memQueue)
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < maxAffinity; i++ {
		q.affinity[fmt.Sprintf("h%04d", i)] = "owner-a"
	}

	// A route update for a known hash never evicts, even at the bound.
	q.affinityLocked("h0000", "owner-b")
	if got := len(q.affinity); got != maxAffinity {
		t.Fatalf("update of known hash at capacity: table size %d, want %d", got, maxAffinity)
	}
	if got := q.affinity["h0000"]; got != "owner-b" {
		t.Fatalf("h0000 routed to %q, want owner-b", got)
	}

	// A new hash at the bound evicts exactly one small batch.
	q.affinityLocked("fresh", "owner-c")
	if got := q.affinity["fresh"]; got != "owner-c" {
		t.Fatalf("fresh routed to %q, want owner-c", got)
	}
	want := maxAffinity - maxAffinity/64 + 1
	if got := len(q.affinity); got != want {
		t.Fatalf("table size after eviction: %d, want %d (bounded batch, not a reset)", got, want)
	}
	surviving := 0
	for h, owner := range q.affinity {
		if h != "fresh" && owner != "" {
			surviving++
		}
	}
	if surviving < maxAffinity-maxAffinity/64 {
		t.Fatalf("only %d routes survived eviction, want >= %d", surviving, maxAffinity-maxAffinity/64)
	}
}

// TestRequeueKeepsTakenOverRoute pins the requeue/affinity interaction:
// a Nack (or lease expiry) drops the task's hash route only while it
// still points at the nacking task's owner. If another owner took the
// hash over in the meantime — affinity-wait takeover, work stealing —
// the route is that owner's live state and must survive. (Requeue used
// to delete the route unconditionally, severing the new owner's route
// and scattering its identical-content tasks across the fleet.)
func TestRequeueKeepsTakenOverRoute(t *testing.T) {
	q := NewMemQueue(0).(*memQueue)

	// Owner A leases t1 and thereby claims hash H.
	if err := q.Enqueue(Task{ID: "t1", Hash: "H"}); err != nil {
		t.Fatal(err)
	}
	leaseA, tasks := q.Lease("owner-a", 1, 0)
	if len(tasks) != 1 || tasks[0].ID != "t1" {
		t.Fatalf("owner-a leased %v, want [t1]", tasks)
	}

	// t2 shares hash H but has been waiting past the affinity bound, so
	// owner B's lease takes the hash over: H now routes to B.
	if err := q.Enqueue(Task{ID: "t2", Hash: "H"}); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	q.byID["t2"].enqueued = time.Now().Add(-q.affinityWait - time.Second)
	q.mu.Unlock()
	leaseB, tasks := q.Lease("owner-b", 1, 0)
	if len(tasks) != 1 || tasks[0].ID != "t2" {
		t.Fatalf("owner-b leased %v, want [t2]", tasks)
	}
	q.mu.Lock()
	if got := q.affinity["H"]; got != "owner-b" {
		q.mu.Unlock()
		t.Fatalf("after takeover H routes to %q, want owner-b", got)
	}
	q.mu.Unlock()

	// A nacks its stale t1: B's route must survive the requeue.
	if !q.Nack(leaseA, "t1") {
		t.Fatal("owner-a's Nack of t1 rejected")
	}
	q.mu.Lock()
	got, ok := q.affinity["H"]
	q.mu.Unlock()
	if !ok || got != "owner-b" {
		t.Fatalf("after owner-a's nack H routes to %q (present=%v), want owner-b", got, ok)
	}

	// The current route holder's own nack still releases the hash so
	// other owners can pick the requeued work up immediately.
	if !q.Nack(leaseB, "t2") {
		t.Fatal("owner-b's Nack of t2 rejected")
	}
	q.mu.Lock()
	_, ok = q.affinity["H"]
	q.mu.Unlock()
	if ok {
		t.Fatal("owner-b's own nack should drop its route to H")
	}
}

// TestExpiryRestoresFIFOOrder pins the expiry requeue order: a crashed
// owner's tasks must come back at the front of the queue in their
// original admission order. (Expiry used to walk the lease's task map
// in Go map iteration order and front-prepend each task, handing the
// recovered batch out scrambled — and costing O(k·n) in repeated
// prepends.)
func TestExpiryRestoresFIFOOrder(t *testing.T) {
	q := NewMemQueue(0)
	const n = 16
	for i := 0; i < n; i++ {
		if err := q.Enqueue(Task{ID: fmt.Sprintf("t%02d", i), Hash: fmt.Sprintf("h%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	lease, tasks := q.Lease("crasher", n, 50*time.Millisecond)
	if lease == "" || len(tasks) != n {
		t.Fatalf("leased %d tasks, want %d", len(tasks), n)
	}
	if got := q.Expire(time.Now().Add(time.Minute)); got != n {
		t.Fatalf("Expire requeued %d tasks, want %d", got, n)
	}
	_, tasks = q.Lease("survivor", n, 0)
	if len(tasks) != n {
		t.Fatalf("re-leased %d tasks, want %d", len(tasks), n)
	}
	for i, task := range tasks {
		if want := fmt.Sprintf("t%02d", i); task.ID != want {
			t.Fatalf("requeued order scrambled at %d: got %s, want %s (full: %v)", i, task.ID, want, ids(tasks))
		}
	}
}

// TestExpiryRequeuesAheadOfNewerWork pins where an expired batch lands:
// ahead of tasks admitted after it, so a crash does not send the lost
// work to the back of the line.
func TestExpiryRequeuesAheadOfNewerWork(t *testing.T) {
	q := NewMemQueue(0)
	if err := q.Enqueue(Task{ID: "old"}); err != nil {
		t.Fatal(err)
	}
	if _, tasks := q.Lease("crasher", 1, 50*time.Millisecond); len(tasks) != 1 {
		t.Fatal("lease failed")
	}
	if err := q.Enqueue(Task{ID: "new"}); err != nil {
		t.Fatal(err)
	}
	q.Expire(time.Now().Add(time.Minute))
	_, tasks := q.Lease("survivor", 2, 0)
	if len(tasks) != 2 || tasks[0].ID != "old" || tasks[1].ID != "new" {
		t.Fatalf("lease order %v, want [old new]", ids(tasks))
	}
}

func ids(tasks []Task) []string {
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = t.ID
	}
	return out
}

// TestWithdrawClearsOrphanRoute pins the affinity cleanup on Withdraw:
// removing the last live task of a hash drops the hash's route, so
// later tasks of that hash do not defer up to affinityWait to an owner
// that may never lease again. A route shared with a still-live task
// survives.
func TestWithdrawClearsOrphanRoute(t *testing.T) {
	q := NewMemQueue(0).(*memQueue)

	// owner-a leases t1 and claims H; t2 (same hash) stays pending.
	mustEnqueue(t, q, Task{ID: "t1", Hash: "H"}, Task{ID: "t2", Hash: "H"})
	if _, tasks := q.Lease("owner-a", 1, 0); len(tasks) != 1 {
		t.Fatal("lease failed")
	}

	// Withdrawing t2 must keep the route: t1 (leased) still shares H.
	if !q.Withdraw("t2") {
		t.Fatal("withdraw t2 rejected")
	}
	if owner, ok := route(q, "H"); !ok || owner != "owner-a" {
		t.Fatalf("route H = %q (present=%v) after withdrawing one of two tasks, want owner-a", owner, ok)
	}

	// A withdrawn pending task that is the hash's last must take the
	// route with it.
	mustEnqueue(t, q, Task{ID: "t3", Hash: "K"})
	q.mu.Lock()
	q.affinityLocked("K", "owner-gone")
	q.mu.Unlock()
	if !q.Withdraw("t3") {
		t.Fatal("withdraw t3 rejected")
	}
	if owner, ok := route(q, "K"); ok {
		t.Fatalf("route K = %q survived withdrawing the hash's only task", owner)
	}
}

// TestDrainClearsOrphanRoutes is the Drain counterpart of
// TestWithdrawClearsOrphanRoute: draining the pending backlog drops
// the routes of hashes with no leased task left, and keeps the routes
// of hashes still held under a lease.
func TestDrainClearsOrphanRoutes(t *testing.T) {
	q := NewMemQueue(0).(*memQueue)
	mustEnqueue(t, q,
		Task{ID: "t1", Hash: "held"},
		Task{ID: "t2", Hash: "held"},
		Task{ID: "t3", Hash: "orphan"},
	)
	if _, tasks := q.Lease("owner-a", 1, 0); len(tasks) != 1 || tasks[0].ID != "t1" {
		t.Fatalf("leased %v, want [t1]", ids(tasks))
	}
	// Route "orphan" to a dead owner so Drain is what must clean it up.
	q.mu.Lock()
	q.affinityLocked("orphan", "owner-dead")
	q.mu.Unlock()

	drained := q.Drain()
	if len(drained) != 2 {
		t.Fatalf("drained %v, want [t2 t3]", ids(drained))
	}
	if owner, ok := route(q, "held"); !ok || owner != "owner-a" {
		t.Fatalf("route held = %q (present=%v), want owner-a (t1 still leased)", owner, ok)
	}
	if owner, ok := route(q, "orphan"); ok {
		t.Fatalf("route orphan = %q survived draining the hash's only task", owner)
	}
}

func mustEnqueue(t *testing.T, q Queue, tasks ...Task) {
	t.Helper()
	for _, task := range tasks {
		if err := q.Enqueue(task); err != nil {
			t.Fatal(err)
		}
	}
}

func route(q *memQueue, hash string) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	owner, ok := q.affinity[hash]
	return owner, ok
}

// failingReader always errors, standing in for a transient entropy
// outage (fd exhaustion, sandbox without /dev/urandom).
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("entropy unavailable") }

// TestLeaseIDEntropyFallback pins that a transient entropy failure
// degrades to counter-based lease IDs instead of panicking the
// coordinator.
func TestLeaseIDEntropyFallback(t *testing.T) {
	old := leaseEntropy
	leaseEntropy = failingReader{}
	defer func() { leaseEntropy = old }()

	a, b := newLeaseID(), newLeaseID()
	if a == "" || b == "" || a == b {
		t.Fatalf("fallback lease IDs %q, %q: want distinct non-empty", a, b)
	}
	if !strings.HasPrefix(a, "lease-") {
		t.Fatalf("fallback lease ID %q not from the counter path", a)
	}

	// The queue keeps serving: a full Lease cycle under the failing
	// entropy source.
	q := NewMemQueue(0)
	mustEnqueue(t, q, Task{ID: "t1"})
	lease, tasks := q.Lease("owner-a", 1, 0)
	if lease == "" || len(tasks) != 1 {
		t.Fatalf("lease under entropy failure: (%q, %v)", lease, ids(tasks))
	}
	if !q.Ack(lease, "t1") {
		t.Fatal("ack under entropy failure rejected")
	}
}

// TestPendingReleasesVacatedSlots: leasing or withdrawing a task must
// not leave it behind in the spare capacity of the pending list. A
// server's unit payload pins its whole parsed batch, so a stale slot
// kept the last large batch alive for as long as later traffic (cache
// hits, say) enqueued nothing.
func TestPendingReleasesVacatedSlots(t *testing.T) {
	q := NewMemQueue(0).(*memQueue)
	for i := range 4 {
		q.Enqueue(Task{ID: fmt.Sprint(i), Payload: i})
	}
	if !q.Withdraw("3") {
		t.Fatal("withdraw failed")
	}
	for range 3 {
		if _, tasks := q.Lease("w", 1, 0); len(tasks) != 1 {
			t.Fatal("no lease")
		}
	}
	for i, qt := range q.pending[:cap(q.pending)] {
		if qt != nil {
			t.Errorf("vacated slot %d still holds task %s", i, qt.task.ID)
		}
	}
}
