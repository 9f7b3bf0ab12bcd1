package jobs

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Task is one leasable unit of work in a Queue: an opaque payload
// addressed by a unique ID, optionally carrying a content hash that
// routes it (see Lease) to the owner already working on identical
// content.
type Task struct {
	// ID is unique within the queue for the task's lifetime.
	ID string
	// Hash is the affinity/routing key — typically a content hash of
	// the work, so identical work lands on the same owner and its warm
	// cache. "" opts out of routing (plain FIFO).
	Hash string
	// Payload is the work itself; the queue never inspects it.
	Payload any
}

// QueueStats is a snapshot of a queue's gauges and counters.
type QueueStats struct {
	// Pending tasks are admitted and waiting; Leased tasks are handed
	// out under one of Leases active leases and not yet acked.
	Pending int
	Leased  int
	Leases  int
	// Requeued counts tasks returned to the queue by lease expiry over
	// the queue's lifetime.
	Requeued uint64
}

// Queue is the service's one work queue: a FIFO with lease/ack
// semantics and requeue on lease expiry, so a consumer that crashes
// mid-lease never loses work — its tasks return to the queue once the
// lease's heartbeat deadline passes.
//
// Every compile unit of every batch waits on it. In-process pullers
// lease one unit at a time with no expiry (they cannot crash
// independently of the queue); remote workers lease chunks under a TTL
// and heartbeat by posting results. WALQueue logs one to disk. All
// implementations must be safe for concurrent use.
type Queue interface {
	// Enqueue admits a group of tasks at once, in order: under one lock
	// acquisition, with one Changed broadcast and, on a durable queue,
	// one log write. It is all or nothing: a group carrying an ID
	// already queued, or one ID twice, is refused whole.
	Enqueue(ts ...Task) error
	// Lease hands up to max pending tasks to owner under a fresh lease
	// and returns its ID. Tasks whose Hash is already affinitized to
	// owner are preferred, unclaimed hashes are affinitized to owner on
	// first lease, and an owner with no eligible work steals the oldest
	// pending tasks (re-affinitizing their hashes), so a dead owner's
	// hashes migrate instead of starving. An empty lease returns
	// ("", nil). ttl 0 means the lease never expires.
	Lease(owner string, max int, ttl time.Duration) (lease string, tasks []Task)
	// LeaseFiltered is Lease over only the pending tasks for which
	// eligible returns true (nil = every task, i.e. plain Lease). The
	// coordinator uses it to route units of an advertised scheduler only
	// to workers advertising that scheduler. The predicate is called
	// with the queue's internal lock held, so it must be fast,
	// side-effect free, and MUST NOT call back into the queue or take
	// locks ordered after it.
	LeaseFiltered(owner string, max int, ttl time.Duration, eligible func(Task) bool) (lease string, tasks []Task)
	// Heartbeat extends the lease's expiry by its TTL, reporting false
	// when the lease is unknown or already expired.
	Heartbeat(lease string) bool
	// Ack resolves one task of the lease, removing it from the queue
	// for good. It reports false when the lease no longer owns the task
	// (expired and requeued, or already acked) — the caller must treat
	// a false Ack as "someone else owns this work now" and discard its
	// result. A lease whose last task is acked completes and is
	// forgotten. Ack implies Heartbeat.
	Ack(lease, taskID string) bool
	// AckBatch acks taskIDs under the lease, returning one Ack result
	// per ID in order — atomically under one lock acquisition (and, on
	// a durable queue, one WAL frame), so the coordinator's batched
	// result path claims a whole posted results[] frame at once. Any
	// true entry implies a heartbeat.
	AckBatch(lease string, taskIDs []string) []bool
	// Held reports what a live lease holds: its owner and its tasks not
	// yet acked, in admission order. An unknown, completed or overdue
	// lease holds nothing ("", nil). It reads the queue and changes
	// nothing, so it neither heartbeats the lease nor expires it.
	Held(lease string) (owner string, tasks []Task)
	// Withdraw removes a pending (not leased) task, reporting whether
	// it was found. Leased tasks cannot be withdrawn — their consumer
	// resolves them via Ack or loses them to expiry.
	Withdraw(taskID string) bool
	// Expire requeues the tasks of every lease whose heartbeat deadline
	// has passed, returning the number of tasks requeued. Lease and the
	// other mutating calls also expire lazily; Expire exists for
	// periodic sweeps while the queue is idle.
	Expire(now time.Time) int
	// Changed returns a channel closed at the next queue mutation
	// (enqueue, requeue, withdraw, ...). Grab it before checking for work,
	// like Job.Changed.
	Changed() <-chan struct{}
	// Stats snapshots the queue gauges and counters.
	Stats() QueueStats
}

// maxAffinity bounds the hash→owner routing table of a MemQueue; past
// it a small batch of routes is evicted rather than letting the table
// grow without bound (affinity is a cache-warmth hint, not a
// correctness property).
const maxAffinity = 4096

// DefaultAffinityWait bounds how long a pending task defers to its
// hash's claimed owner: past it, any leasing owner takes the task and
// its hash. Affinity is a warm-cache preference, never a reservation —
// without this bound, a hash claimed by an owner that acked its last
// task and then vanished (crashed, decommissioned) would starve later
// tasks of that hash forever, since lease expiry only clears the
// affinity of tasks the dead owner still held.
const DefaultAffinityWait = 5 * time.Second

// memQueue is the in-process Queue: a mutex-guarded FIFO with an
// affinity table and per-lease deadlines.
type memQueue struct {
	affinityWait time.Duration // see DefaultAffinityWait

	mu       sync.Mutex
	pending  []*qtask
	byID     map[string]*qtask // pending + leased
	leases   map[string]*qlease
	affinity map[string]string // task hash → owner
	hashRefs map[string]int    // task hash → live (pending + leased) tasks
	changed  chan struct{}
	requeued uint64
	seq      uint64 // admission order, assigned at Enqueue
}

type qtask struct {
	task     Task
	lease    string    // "" while pending
	enqueued time.Time // admission time; kept across requeues
	seq      uint64    // admission order; ties requeues back to FIFO
}

type qlease struct {
	owner    string
	ttl      time.Duration
	deadline time.Time // zero: never expires
	tasks    map[string]*qtask
}

// NewMemQueue returns the in-process Queue implementation. The queue
// is unbounded: the engine bounds admission per batch. Any argument is
// ignored; it is the removed capacity bound, still accepted so that
// callers written against it (the perfbench module) keep compiling.
func NewMemQueue(...int) Queue {
	return &memQueue{
		affinityWait: DefaultAffinityWait,
		byID:         make(map[string]*qtask),
		leases:       make(map[string]*qlease),
		affinity:     make(map[string]string),
		hashRefs:     make(map[string]int),
		changed:      make(chan struct{}),
	}
}

// newLeaseID returns a fresh 64-bit lease ID.
func newLeaseID() string {
	var b [8]byte
	rand.Read(b[:]) // never fails: an entropy error crashes the program instead
	return hex.EncodeToString(b[:])
}

func (q *memQueue) Enqueue(ts ...Task) error {
	if len(ts) == 0 {
		return nil
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	for i, t := range ts {
		if _, dup := q.byID[t.ID]; dup {
			// Every ID before this one was new: unregister them again.
			for _, u := range ts[:i] {
				delete(q.byID, u.ID)
			}
			q.seq -= uint64(i)
			return fmt.Errorf("jobs: task %q already queued", t.ID)
		}
		q.seq++
		q.byID[t.ID] = &qtask{task: t, enqueued: now, seq: q.seq}
	}
	for _, t := range ts {
		q.pending = append(q.pending, q.byID[t.ID])
		if t.Hash != "" {
			q.hashRefs[t.Hash]++
		}
	}
	q.broadcastLocked()
	return nil
}

func (q *memQueue) Lease(owner string, max int, ttl time.Duration) (string, []Task) {
	return q.LeaseFiltered(owner, max, ttl, nil)
}

func (q *memQueue) LeaseFiltered(owner string, max int, ttl time.Duration, eligible func(Task) bool) (string, []Task) {
	if max < 1 {
		max = 1
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)

	// Pass 1: tasks routed to this owner — affinitized to it, unrouted
	// (hash unclaimed or empty), or deferred past the affinity wait
	// (the claimed owner is not draining them: crashed, or swamped).
	// Claiming affinity here is what dedupes identical content onto
	// one owner's warm cache; the wait bound is what keeps that a
	// preference rather than a starvation hazard. Ineligible tasks are
	// invisible to this owner in both passes — they wait for a capable
	// one.
	var picked []*qtask
	for _, qt := range q.pending {
		if len(picked) >= max {
			break
		}
		if eligible != nil && !eligible(qt.task) {
			continue
		}
		h := qt.task.Hash
		if h == "" {
			picked = append(picked, qt)
			continue
		}
		cur, claimed := q.affinity[h]
		if !claimed || cur == owner || now.Sub(qt.enqueued) > q.affinityWait {
			q.affinityLocked(h, owner)
			picked = append(picked, qt)
		}
	}
	// Pass 2 (work stealing): an owner with nothing routed to it takes
	// the oldest pending tasks regardless of affinity and re-routes
	// their hashes to itself — a crashed or slow owner's backlog must
	// migrate, not starve.
	if len(picked) == 0 {
		for _, qt := range q.pending {
			if len(picked) >= max {
				break
			}
			if eligible != nil && !eligible(qt.task) {
				continue
			}
			if h := qt.task.Hash; h != "" {
				q.affinityLocked(h, owner)
			}
			picked = append(picked, qt)
		}
	}
	if len(picked) == 0 {
		return "", nil
	}

	id := newLeaseID()
	l := &qlease{owner: owner, ttl: ttl, tasks: make(map[string]*qtask, len(picked))}
	if ttl > 0 {
		l.deadline = now.Add(ttl)
	}
	tasks := make([]Task, 0, len(picked))
	for _, qt := range picked {
		qt.lease = id
		l.tasks[qt.task.ID] = qt
		tasks = append(tasks, qt.task)
	}
	// DeleteFunc zeroes the vacated tail, so the backing array pins no
	// payload of a task that has left the pending list.
	q.pending = slices.DeleteFunc(q.pending, func(qt *qtask) bool { return qt.lease != "" })
	q.leases[id] = l
	return id, tasks
}

// affinityLocked routes hash to owner. When adding a new route would
// push the table past its bound, it evicts a small batch of other
// routes instead of resetting the table: dropping every route at once
// made all in-flight hashes migrate to whichever owners leased next,
// a stampede that discarded the whole fleet's cache warmth in one
// step. Requires q.mu.
func (q *memQueue) affinityLocked(hash, owner string) {
	if _, known := q.affinity[hash]; !known && len(q.affinity) >= maxAffinity {
		evict := maxAffinity / 64
		//dms:orderok eviction is deliberately arbitrary: any victims work, cache warmth only
		for h := range q.affinity {
			if evict == 0 {
				break
			}
			delete(q.affinity, h)
			evict--
		}
	}
	q.affinity[hash] = owner
}

func (q *memQueue) Heartbeat(lease string) bool {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	l, ok := q.leases[lease]
	if !ok {
		return false
	}
	if l.ttl > 0 {
		l.deadline = now.Add(l.ttl)
	}
	return true
}

func (q *memQueue) Held(lease string) (string, []Task) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[lease]
	if !ok || (!l.deadline.IsZero() && !now.Before(l.deadline)) {
		return "", nil
	}
	held := make([]*qtask, 0, len(l.tasks))
	//dms:orderok collected tasks are sorted by admission seq below
	for _, qt := range l.tasks {
		held = append(held, qt)
	}
	slices.SortFunc(held, func(a, b *qtask) int { return cmp.Compare(a.seq, b.seq) })
	tasks := make([]Task, len(held))
	for i, qt := range held {
		tasks[i] = qt.task
	}
	return l.owner, tasks
}

func (q *memQueue) Ack(lease, taskID string) bool {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	return q.ackLocked(lease, taskID, now)
}

func (q *memQueue) AckBatch(lease string, taskIDs []string) []bool {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	acked := make([]bool, len(taskIDs))
	for i, id := range taskIDs {
		acked[i] = q.ackLocked(lease, id, now)
	}
	return acked
}

// ackLocked resolves one task of the lease (the shared core of Ack and
// AckBatch). Requires q.mu, with expiry already applied for now.
func (q *memQueue) ackLocked(lease, taskID string, now time.Time) bool {
	l, ok := q.leases[lease]
	if !ok {
		return false
	}
	qt, owned := l.tasks[taskID]
	if !owned {
		return false
	}
	delete(l.tasks, taskID)
	delete(q.byID, qt.task.ID)
	// Keep the hash route even when this was the last task of the hash:
	// a completed hash's route is the cache-warmth hint that steers the
	// next identical task back to the owner that just computed it.
	q.dropHashRefLocked(qt.task.Hash, false)
	if l.ttl > 0 {
		l.deadline = now.Add(l.ttl)
	}
	if len(l.tasks) == 0 {
		delete(q.leases, lease)
	}
	return true
}

// releaseRouteLocked drops a requeued task's hash route — but only
// while the route still points at the owner that held the task. The
// hash may have been re-routed to another owner in the meantime
// (affinity-wait takeover, work stealing); deleting unconditionally
// severed that owner's live route, scattering its identical-content
// tasks across the fleet. Requires q.mu.
func (q *memQueue) releaseRouteLocked(qt *qtask, owner string) {
	if h := qt.task.Hash; h != "" && q.affinity[h] == owner {
		delete(q.affinity, h)
	}
}

// dropHashRefLocked releases one live-task reference on hash. With
// dropRoute set and no live task left sharing the hash, the affinity
// route goes too: a route whose every task was withdrawn is a
// squatter — later tasks of that hash would defer up to
// affinityWait to an owner that may never lease again. (Ack passes
// false: a completed task's route is a warm-cache hint worth keeping.)
// Requires q.mu.
func (q *memQueue) dropHashRefLocked(hash string, dropRoute bool) {
	if hash == "" {
		return
	}
	if q.hashRefs[hash]--; q.hashRefs[hash] <= 0 {
		delete(q.hashRefs, hash)
		if dropRoute {
			delete(q.affinity, hash)
		}
	}
}

func (q *memQueue) Withdraw(taskID string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	qt, ok := q.byID[taskID]
	if !ok || qt.lease != "" {
		return false
	}
	if i := slices.Index(q.pending, qt); i >= 0 {
		q.pending = slices.Delete(q.pending, i, i+1)
	}
	delete(q.byID, taskID)
	q.dropHashRefLocked(qt.task.Hash, true)
	q.broadcastLocked()
	return true
}

func (q *memQueue) Expire(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked(now)
}

// expireLocked requeues the tasks of every overdue lease, restoring
// them to the front of the queue in original admission order. The
// tasks are collected across all overdue leases, sorted by admission
// seq, and prepended in one batch: requeueing them one by one in Go
// map iteration order scrambled a recovered batch nondeterministically
// and cost O(k·n) in repeated front-prepends. Requires q.mu.
func (q *memQueue) expireLocked(now time.Time) int {
	var expired []*qtask
	//dms:orderok collected tasks are sorted by admission seq below before requeueing
	for id, l := range q.leases {
		if l.deadline.IsZero() || now.Before(l.deadline) {
			continue
		}
		delete(q.leases, id)
		//dms:orderok collected tasks are sorted by admission seq below before requeueing
		for _, qt := range l.tasks {
			qt.lease = ""
			q.releaseRouteLocked(qt, l.owner)
			expired = append(expired, qt)
		}
	}
	if len(expired) == 0 {
		return 0
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	q.pending = append(expired, q.pending...)
	q.requeued += uint64(len(expired))
	q.broadcastLocked()
	return len(expired)
}

func (q *memQueue) Changed() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.changed
}

// broadcastLocked wakes every waiter by closing the current change
// channel and installing a fresh one. Requires q.mu.
func (q *memQueue) broadcastLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

func (q *memQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Pending:  len(q.pending),
		Leased:   len(q.byID) - len(q.pending),
		Leases:   len(q.leases),
		Requeued: q.requeued,
	}
}
