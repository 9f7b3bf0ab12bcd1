package jobs

// Model-based test of the Queue contract: seeded random sequences of
// queue calls, multi-task Enqueue groups included, each checked
// against a plain reference model.
//
// With unhashed tasks the model predicts every result exactly, down to
// which tasks each lease returns. With hashed tasks the choice a lease
// makes depends on routing, so the model checks invariants only: a
// task is held by at most one live lease, it resolves exactly once, no
// task is lost, and no affinity route outlives the tasks that justify
// it. On a WALQueue the sequences also crash the queue (drop the handle
// without Close) and reopen the directory.
//
// Lease expiry runs on a synthetic clock. Every TTL is a whole number
// of hours and every Expire call lands half an hour off such a
// boundary, so whether a lease has expired never depends on how long
// the test itself takes: it expires exactly when the Expire offset
// exceeds its TTL. The queues' own lazy expiry, which reads the real
// clock, never fires.

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"
)

// modelTask is one admitted task as the model sees it.
type modelTask struct {
	id    string
	hash  string
	seq   uint64 // admission order
	lease string // "" while pending
}

// modelLease is one live lease: its TTL and the tasks it still holds.
type modelLease struct {
	ttl   time.Duration
	tasks map[string]bool
}

// queueModel is the reference queue.
type queueModel struct {
	seq      uint64
	pending  []*modelTask // in lease order
	live     map[string]*modelTask
	leases   map[string]*modelLease // live leases by the queue's lease ID
	issued   []string               // every lease ID handed out, in issue order
	resolved map[string]int         // times each task resolved
	requeued uint64
	// ackedLast marks a hash whose last live task was acked, the one
	// case in which the queue keeps the hash's route as a warm-cache
	// hint although no task of it is left.
	ackedLast map[string]bool
}

func newQueueModel() *queueModel {
	return &queueModel{
		live:      make(map[string]*modelTask),
		leases:    make(map[string]*modelLease),
		resolved:  make(map[string]int),
		ackedLast: make(map[string]bool),
	}
}

func (m *queueModel) enqueue(id, hash string) {
	m.seq++
	mt := &modelTask{id: id, hash: hash, seq: m.seq}
	m.pending = append(m.pending, mt)
	m.live[id] = mt
}

// take moves the named pending tasks under a new live lease.
func (m *queueModel) take(lease string, ttl time.Duration, ids []string) {
	ml := &modelLease{ttl: ttl, tasks: make(map[string]bool, len(ids))}
	for _, id := range ids {
		ml.tasks[id] = true
		m.live[id].lease = lease
	}
	m.pending = slices.DeleteFunc(m.pending, func(mt *modelTask) bool { return ml.tasks[mt.id] })
	m.leases[lease] = ml
	m.issued = append(m.issued, lease)
}

// live leases in issue order. Lease IDs are random, so the seeded runs
// pick leases by issue order to stay reproducible.
func (m *queueModel) liveLeases() []string {
	var live []string
	for _, id := range m.issued {
		if m.leases[id] != nil {
			live = append(live, id)
		}
	}
	return live
}

// ack predicts and applies one Ack.
func (m *queueModel) ack(lease, id string) bool {
	ml := m.leases[lease]
	if ml == nil || !ml.tasks[id] {
		return false
	}
	delete(ml.tasks, id)
	if len(ml.tasks) == 0 {
		delete(m.leases, lease)
	}
	m.resolve(id, true)
	return true
}

func (m *queueModel) withdraw(id string) bool {
	mt := m.live[id]
	if mt == nil || mt.lease != "" {
		return false
	}
	m.pending = slices.DeleteFunc(m.pending, func(p *modelTask) bool { return p == mt })
	m.resolve(id, false)
	return true
}

func (m *queueModel) resolve(id string, acked bool) {
	mt := m.live[id]
	delete(m.live, id)
	m.resolved[id]++
	if mt.hash != "" && m.hashLive(mt.hash) == 0 {
		m.ackedLast[mt.hash] = acked
	}
}

func (m *queueModel) hashLive(hash string) int {
	n := 0
	for _, mt := range m.live {
		if mt.hash == hash {
			n++
		}
	}
	return n
}

// expire applies Expire at an offset of delta past the real clock: a
// lease with a TTL below delta has expired. Its tasks go back to the
// head of the pending list in admission order, ahead of newer work.
func (m *queueModel) expire(delta time.Duration) int {
	var back []*modelTask
	for _, id := range m.liveLeases() {
		ml := m.leases[id]
		if ml.ttl == 0 || ml.ttl > delta {
			continue
		}
		for tid := range ml.tasks {
			mt := m.live[tid]
			mt.lease = ""
			back = append(back, mt)
		}
		delete(m.leases, id)
	}
	slices.SortFunc(back, func(a, b *modelTask) int { return int(a.seq) - int(b.seq) })
	m.pending = append(back, m.pending...)
	m.requeued += uint64(len(back))
	return len(back)
}

// reopen applies a crash and restart: leases are forgotten and every
// unresolved task is pending in admission order.
func (m *queueModel) reopen() {
	clear(m.leases)
	m.pending = m.pending[:0]
	for _, mt := range m.live {
		mt.lease = ""
		m.pending = append(m.pending, mt)
	}
	slices.SortFunc(m.pending, func(a, b *modelTask) int { return int(a.seq) - int(b.seq) })
	m.requeued = 0
	m.ackedLast = make(map[string]bool)
}

// modelRun drives one queue through one seeded call sequence.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	q      Queue
	m      *queueModel
	hashed bool
	reopen func() Queue // nil: the queue cannot crash
	nextID int
}

// eligibleOdd is the one filter the runs lease with: tasks whose
// numeric suffix is odd.
func eligibleOdd(t Task) bool {
	n, _ := strconv.Atoi(t.ID[1:])
	return n%2 == 1
}

// Lease and Expire take their TTLs and offsets from these sets; no TTL
// lies within half an hour of an offset.
var (
	modelTTLs    = []time.Duration{0, time.Hour, 2 * time.Hour, 3 * time.Hour}
	modelOffsets = []time.Duration{30 * time.Minute, 90 * time.Minute, 150 * time.Minute, 210 * time.Minute}
)

func (r *modelRun) step(i int) {
	t := r.t
	switch k := r.rng.IntN(20); {
	case k < 5: // Enqueue a group of fresh tasks, or a group repeating an ID
		group := make([]Task, 1+r.rng.IntN(3))
		for j := range group {
			group[j].ID = "t" + strconv.Itoa(r.nextID+j)
			if r.hashed && r.rng.IntN(4) != 0 {
				group[j].Hash = "h" + strconv.Itoa(r.rng.IntN(4))
			}
		}
		if r.rng.IntN(8) == 0 {
			// A live ID, or one of the group's own, makes the whole
			// group a refusal that leaves the queue as it was.
			j := r.rng.IntN(len(group))
			if len(r.m.live) > 0 && r.rng.IntN(2) == 0 {
				group[j].ID = r.anyLive()
			} else {
				group = append(group, group[j])
			}
			if err := r.q.Enqueue(group...); err == nil {
				t.Fatalf("step %d: Enqueue of group %v repeating an ID accepted", i, ids(group))
			}
			break
		}
		if err := r.q.Enqueue(group...); err != nil {
			t.Fatalf("step %d: Enqueue %v: %v", i, ids(group), err)
		}
		for _, task := range group {
			r.m.enqueue(task.ID, task.Hash)
		}
		r.nextID += len(group)
	case k < 9: // Lease or LeaseFiltered
		owner := "w" + strconv.Itoa(r.rng.IntN(3))
		max := 1 + r.rng.IntN(4)
		ttl := modelTTLs[r.rng.IntN(len(modelTTLs))]
		var eligible func(Task) bool
		if r.rng.IntN(3) == 0 {
			eligible = eligibleOdd
		}
		var lease string
		var tasks []Task
		if eligible == nil && r.rng.IntN(2) == 0 {
			lease, tasks = r.q.Lease(owner, max, ttl)
		} else {
			lease, tasks = r.q.LeaseFiltered(owner, max, ttl, eligible)
		}
		r.checkLease(i, max, eligible, lease, tasks)
		if len(tasks) > 0 {
			r.m.take(lease, ttl, ids(tasks))
		}
	case k < 12: // Ack
		lease, id := r.anyLease(), r.anyTask()
		if got, want := r.q.Ack(lease, id), r.m.ack(lease, id); got != want {
			t.Fatalf("step %d: Ack(%s, %s) = %v, model says %v", i, lease, id, got, want)
		}
	case k < 14: // AckBatch
		lease := r.anyLease()
		batch := make([]string, 1+r.rng.IntN(3))
		for j := range batch {
			batch[j] = r.anyTask()
		}
		got := r.q.AckBatch(lease, batch)
		for j, id := range batch {
			if want := r.m.ack(lease, id); got[j] != want {
				t.Fatalf("step %d: AckBatch(%s, %v)[%d] = %v, model says %v", i, lease, batch, j, got[j], want)
			}
		}
	case k < 15: // Heartbeat
		lease := r.anyLease()
		if got, want := r.q.Heartbeat(lease), r.m.leases[lease] != nil; got != want {
			t.Fatalf("step %d: Heartbeat(%s) = %v, model says %v", i, lease, got, want)
		}
	case k < 17: // Withdraw
		id := r.anyTask()
		if got, want := r.q.Withdraw(id), r.m.withdraw(id); got != want {
			t.Fatalf("step %d: Withdraw(%s) = %v, model says %v", i, id, got, want)
		}
	case k < 19: // Expire on the synthetic clock
		delta := modelOffsets[r.rng.IntN(len(modelOffsets))]
		if got, want := r.q.Expire(time.Now().Add(delta)), r.m.expire(delta); got != want {
			t.Fatalf("step %d: Expire(+%v) requeued %d, model says %d", i, delta, got, want)
		}
	default: // crash and reopen
		if r.reopen == nil {
			return
		}
		r.q = r.reopen()
		r.m.reopen()
		r.checkRecovered(i)
	}
	r.checkStats(i)
	if r.hashed {
		r.checkRoutes(i)
	}
}

// checkLease checks one lease result: exactly the model's prediction
// for unhashed tasks, the invariants for hashed ones.
func (r *modelRun) checkLease(i, max int, eligible func(Task) bool, lease string, tasks []Task) {
	t := r.t
	var want []string // eligible pending tasks, in lease order
	for _, mt := range r.m.pending {
		if eligible == nil || eligible(Task{ID: mt.id}) {
			want = append(want, mt.id)
		}
	}
	got := ids(tasks)
	if (lease == "") != (len(tasks) == 0) {
		t.Fatalf("step %d: lease %q with tasks %v", i, lease, got)
	}
	if !r.hashed {
		if len(want) > max {
			want = want[:max]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: lease(max %d) = %v, model says %v", i, max, got, want)
		}
		return
	}
	if len(want) > 0 && len(got) == 0 {
		t.Fatalf("step %d: empty lease with eligible tasks %v pending", i, want)
	}
	if len(got) > max {
		t.Fatalf("step %d: lease of %d tasks exceeds max %d", i, len(got), max)
	}
	seen := make(map[string]bool)
	for _, id := range got {
		mt := r.m.live[id]
		switch {
		case mt == nil:
			t.Fatalf("step %d: lease returned %s, which is resolved or unknown", i, id)
		case mt.lease != "":
			t.Fatalf("step %d: lease returned %s, still held by lease %s", i, id, mt.lease)
		case seen[id]:
			t.Fatalf("step %d: lease returned %s twice", i, id)
		case !slices.Contains(want, id):
			t.Fatalf("step %d: lease returned ineligible %s", i, id)
		}
		seen[id] = true
	}
}

// checkStats compares the queue's gauges with the model's.
func (r *modelRun) checkStats(i int) {
	leased := len(r.m.live) - len(r.m.pending)
	want := QueueStats{Pending: len(r.m.pending), Leased: leased, Leases: len(r.m.leases), Requeued: r.m.requeued}
	if got := r.q.Stats(); got != want {
		r.t.Fatalf("step %d: Stats = %+v, model says %+v", i, got, want)
	}
}

// checkRecovered checks a reopened WAL: it replayed exactly the
// unresolved tasks, in admission order.
func (r *modelRun) checkRecovered(i int) {
	var want []string
	for _, mt := range r.m.pending {
		want = append(want, mt.id)
	}
	if got := ids(r.q.(*WALQueue).Recovered()); !slices.Equal(got, want) {
		r.t.Fatalf("step %d: reopened WAL recovered %v, model says %v", i, got, want)
	}
}

// checkRoutes checks that every affinity route has a live task of its
// hash, or that the hash's last task was acked.
func (r *modelRun) checkRoutes(i int) {
	mq := unwrapQueue(r.q).(*memQueue)
	mq.mu.Lock()
	routes := make(map[string]string, len(mq.affinity))
	for h, owner := range mq.affinity { // map-to-map copy keyed by the range key
		routes[h] = owner
	}
	mq.mu.Unlock()
	for _, h := range slices.Sorted(maps.Keys(routes)) {
		if r.m.hashLive(h) == 0 && !r.m.ackedLast[h] {
			r.t.Fatalf("step %d: route %s → %s outlives every task of its hash", i, h, routes[h])
		}
	}
}

// finish resolves everything still in the queue and checks that each
// task ever admitted resolved exactly once.
func (r *modelRun) finish() {
	t := r.t
	if got, want := r.q.Expire(time.Now().Add(4*time.Hour)), r.m.expire(4*time.Hour); got != want {
		t.Fatalf("final Expire requeued %d, model says %d", got, want)
	}
	for _, lease := range r.m.liveLeases() {
		held := slices.Sorted(maps.Keys(r.m.leases[lease].tasks))
		for j, ok := range r.q.AckBatch(lease, held) {
			if !ok || !r.m.ack(lease, held[j]) {
				t.Fatalf("final ack of %s under %s refused", held[j], lease)
			}
		}
	}
	for {
		lease, tasks := r.q.Lease("final", 64, 0)
		if len(tasks) == 0 {
			break
		}
		for _, task := range tasks {
			if r.m.live[task.ID] == nil || r.m.live[task.ID].lease != "" {
				t.Fatalf("final lease returned %s, which the model holds no pending", task.ID)
			}
		}
		r.m.take(lease, 0, ids(tasks))
		for j, ok := range r.q.AckBatch(lease, ids(tasks)) {
			if !ok || !r.m.ack(lease, tasks[j].ID) {
				t.Fatalf("final ack of %s refused", tasks[j].ID)
			}
		}
	}
	if len(r.m.live) != 0 {
		t.Fatalf("tasks lost: %d live in the model, none left in the queue", len(r.m.live))
	}
	for n := 0; n < r.nextID; n++ {
		if id := "t" + strconv.Itoa(n); r.m.resolved[id] != 1 {
			t.Fatalf("task %s resolved %d times", id, r.m.resolved[id])
		}
	}
	if st := r.q.Stats(); st.Pending != 0 || st.Leased != 0 || st.Leases != 0 {
		t.Fatalf("Stats after draining = %+v", st)
	}
}

func (r *modelRun) anyLive() string {
	keys := slices.Sorted(maps.Keys(r.m.live))
	return keys[r.rng.IntN(len(keys))]
}

// anyTask picks a task ID, live or not, or one never admitted.
func (r *modelRun) anyTask() string {
	if len(r.m.live) > 0 && r.rng.IntN(4) != 0 {
		return r.anyLive()
	}
	return "t" + strconv.Itoa(r.rng.IntN(r.nextID+1))
}

// anyLease picks a live lease ID when there is one, else any issued
// one (most likely dead) or an unknown one.
func (r *modelRun) anyLease() string {
	if live := r.m.liveLeases(); len(live) > 0 && r.rng.IntN(5) != 0 {
		return live[r.rng.IntN(len(live))]
	}
	if len(r.m.issued) > 0 && r.rng.IntN(2) == 0 {
		return r.m.issued[r.rng.IntN(len(r.m.issued))]
	}
	return "no-such-lease"
}

// runQueueModel drives seeded call sequences through queues from open.
// open returns a queue and, for a durable queue, a reopen function.
func runQueueModel(t *testing.T, open func(t *testing.T) (Queue, func() Queue)) {
	const seeds, steps = 12, 400
	for _, hashed := range []bool{false, true} {
		for seed := range uint64(seeds) {
			t.Run(fmt.Sprintf("hashed=%v/seed=%d", hashed, seed), func(t *testing.T) {
				q, reopen := open(t)
				r := &modelRun{
					t:      t,
					rng:    rand.New(rand.NewPCG(seed, 0x5eed)),
					q:      q,
					m:      newQueueModel(),
					hashed: hashed,
					reopen: reopen,
				}
				for i := range steps {
					r.step(i)
				}
				r.finish()
				if w, ok := r.q.(*WALQueue); ok {
					w.Close()
				}
			})
		}
	}
}

func TestMemQueueModel(t *testing.T) {
	runQueueModel(t, func(*testing.T) (Queue, func() Queue) { return NewMemQueue(), nil })
}

// TestWALQueueModel also crashes the queue: the handle is dropped
// without Close, and the directory reopened.
func TestWALQueueModel(t *testing.T) {
	runQueueModel(t, func(t *testing.T) (Queue, func() Queue) {
		dir := t.TempDir()
		open := func() Queue {
			w, err := NewWALQueue(NewMemQueue(), dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		return open(), open
	})
}
