// Package core implements Distributed Modulo Scheduling (DMS), the
// contribution of Fernandes, Llosa and Topham (HPCA 1999): a modulo
// scheduler that integrates code partitioning for clustered VLIW
// machines into the scheduling loop itself.
//
// DMS extends Rau's Iterative Modulo Scheduling with a communication
// constraint: two operations joined by a true data dependence must be
// placed in directly-connected clusters of the bi-directional ring.
// Each operation is placed by a cascade of three strategies (paper
// Figure 2):
//
//  1. find a slot whose cluster is directly connected to every
//     scheduled true-dependence neighbour;
//  2. otherwise build chains of move operations through intermediate
//     clusters between the operation and each too-distant scheduled
//     predecessor (both ring directions are considered, paper Figure
//     3), choosing the option that leaves the most free copy-unit
//     slots, then the fewest moves;
//  3. otherwise force the placement and unschedule operations that
//     conflict on resources, dependences, or communication.
//
// Unscheduling a chain member dissolves the whole chain: its moves are
// unscheduled and deleted from the dependence graph and the original
// producer→consumer edge is restored (with a consistency re-check),
// implementing the paper's producer/move/consumer backtracking rules.
package core

import (
	"context"
	"fmt"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Options tune the scheduler and expose the ablation switches used by
// the benchmarks.
type Options struct {
	// BudgetRatio bounds scheduling attempts at BudgetRatio × ops per
	// candidate II. 0 means ims.DefaultBudgetRatio.
	BudgetRatio int
	// MaxII caps the candidate initiation interval; 0 derives a safe
	// bound from the graph.
	MaxII int
	// DisableChains turns strategy 2 off, approximating the authors'
	// earlier single-phase algorithm (IPPS'98) that could not route
	// values between indirectly-connected clusters.
	DisableChains bool
	// OneDirectionOnly restricts chains to the shortest ring direction,
	// an ablation of the bi-directional flexibility of paper Figure 3.
	OneDirectionOnly bool
}

func (o Options) budgetRatio() int {
	if o.BudgetRatio <= 0 {
		return ims.DefaultBudgetRatio
	}
	return o.BudgetRatio
}

// Stats reports how the scheduler worked.
type Stats struct {
	MII        int
	II         int
	IIsTried   int
	Placements int
	Evictions  int

	// Strategy1/2/3 count successful placements per strategy.
	Strategy1, Strategy2, Strategy3 int

	// ChainsBuilt / ChainsDissolved / MovesInserted track strategy-2
	// activity across the winning II attempt and all failed ones.
	ChainsBuilt     int
	ChainsDissolved int
	MovesInserted   int
}

// ScheduleCtx runs DMS for the graph on a clustered machine. The input
// graph is treated as immutable: the search works on a single internal
// clone, rolled back between candidate IIs, and the returned schedule
// references that clone in its successful state (whose extra move
// nodes are part of the final code). Run the copy-insertion prepass
// (ddg.InsertCopies) first for machines with ≥ 2 clusters.
//
// Cancellation is cooperative: the II search checks ctx between
// candidate IIs and periodically inside each attempt's budget loop, so
// a canceled context aborts within one candidate II. The returned
// error wraps ctx.Err().
//
// The II search clones the input graph once and reuses one worker
// across candidate IIs: graph mutations of a failed attempt are undone
// with ddg.Rollback, and all II-invariant state (node ID set, scratch
// buffers, queue storage) is computed once — only the II-dependent
// heights are recomputed per candidate, into a reused buffer.
func ScheduleCtx(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	if err := m.Validate(); err != nil {
		return nil, st, err
	}
	mii, err := g.MII(m)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := ims.MaxII(g, mii, opt.MaxII)
	work := g.Clone()
	snap := work.Snapshot()
	w := &worker{
		ctx: ctx,
		g:   work,
		m:   m,
		opt: opt,
		st:  &st,
		q:   schedule.NewQueue(),
		ids: work.NodeIDs(),
	}
	for ii := mii; ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("core: %s on %s: %w", g.Name(), m.Name, err)
		}
		st.IIsTried++
		w.resetForII(ii)
		if s, ok := w.run(); ok {
			st.II = ii
			return s, st, nil
		}
		work.Rollback(snap)
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("core: %s on %s: %w", g.Name(), m.Name, err)
	}
	return nil, st, fmt.Errorf("core: %s did not schedule on %s within MaxII %d", g.Name(), m.Name, maxII)
}

// worker holds the state of one candidate-II attempt plus the scratch
// buffers reused across attempts. All per-node state is slice-indexed
// by node ID (IDs are dense ints) — the maps of the original
// implementation dominated the inner loop's time and allocations.
type worker struct {
	ctx context.Context
	g   *ddg.Graph
	m   *machine.Machine
	ii  int
	opt Options
	st  *Stats

	s        *schedule.Schedule
	heights  []int
	q        *schedule.Queue
	prevTime []int // last placement time per node; -1 = never scheduled
	budget   int

	chains       []*chain // indexed by chain ID; nil = dissolved
	chainsByNode [][]int
	nextChainID  int

	// II-invariant state and reusable scratch.
	ids      []int                 // live node IDs of the input graph
	paths    [][]machine.ChainPath // ChainPaths cache, indexed src*Clusters+dst
	cand     []clusterScore        // candidateClusters scratch
	candIdx  []int
	victims  []int
	farEdges []ddg.Edge // strategy-2 scratch
	pathsBuf [][]machine.ChainPath
	comboIdx []int
	combo    []machine.ChainPath
	planned  []plannedChain
	mvBuf    []int   // backing store for plannedChain.mvTimes while costing
	tentUse  []int32 // tentative reservations per (slot, cluster, kind)
	tentCopy []int32 // tentative copy-unit reservations per cluster
	tentTick []int32 // touched tentUse indices, cleared between options
}

// resetForII rewinds the worker for a fresh candidate-II attempt,
// reusing every buffer whose capacity survives.
func (w *worker) resetForII(ii int) {
	w.ii = ii
	if w.s == nil {
		w.s = schedule.New(w.g, w.m, ii)
	} else {
		w.s.Reset(ii)
	}
	w.heights = w.g.HeightsInto(ii, w.heights)
	w.q.Reset()
	n := w.g.NumIDs()
	if cap(w.prevTime) < n {
		w.prevTime = make([]int, n)
	}
	w.prevTime = w.prevTime[:n]
	for i := range w.prevTime {
		w.prevTime[i] = -1
	}
	w.chains = w.chains[:0]
	w.nextChainID = 0
	if cap(w.chainsByNode) < n {
		w.chainsByNode = make([][]int, n)
	}
	w.chainsByNode = w.chainsByNode[:n]
	for i := range w.chainsByNode {
		w.chainsByNode[i] = w.chainsByNode[i][:0]
	}
	cells := ii * w.m.Clusters * machine.NumFUKinds
	if cap(w.tentUse) < cells {
		w.tentUse = make([]int32, cells)
	}
	w.tentUse = w.tentUse[:cells]
	for i := range w.tentUse {
		w.tentUse[i] = 0
	}
	if cap(w.tentCopy) < w.m.Clusters {
		w.tentCopy = make([]int32, w.m.Clusters)
	}
	w.tentCopy = w.tentCopy[:w.m.Clusters]
	w.tentTick = w.tentTick[:0]
}

// chainPaths returns the candidate routes from src to dst, memoised:
// the ring topology is fixed for the whole search, and recomputing the
// routes dominated strategy 2's allocations.
func (w *worker) chainPaths(src, dst int) []machine.ChainPath {
	if w.paths == nil {
		w.paths = make([][]machine.ChainPath, w.m.Clusters*w.m.Clusters)
	}
	idx := src*w.m.Clusters + dst
	if p := w.paths[idx]; p != nil {
		return p
	}
	p := w.m.ChainPaths(src, dst)
	w.paths[idx] = p
	return p
}

// ensureNode grows the per-node slices when a move node extends the
// graph's ID space mid-attempt.
func (w *worker) ensureNode(n int) {
	for n >= len(w.prevTime) {
		w.prevTime = append(w.prevTime, -1)
	}
	for n >= len(w.chainsByNode) {
		w.chainsByNode = append(w.chainsByNode, nil)
	}
}

// run attempts to schedule every node; ok=false means the budget ran
// out (or the context was canceled) and the caller should try a larger
// II (or bail out).
func (w *worker) run() (*schedule.Schedule, bool) {
	for _, n := range w.ids {
		w.q.Push(n, w.heights[n])
	}
	w.budget = w.opt.budgetRatio() * len(w.ids)
	for w.q.Len() > 0 {
		if w.budget == 0 {
			return nil, false
		}
		if w.budget&63 == 0 && w.ctx.Err() != nil {
			return nil, false
		}
		w.budget--
		op := w.q.Pop()
		if !w.g.Alive(op) {
			continue // dissolved move re-queued defensively; cannot happen for originals
		}
		w.st.Placements++
		w.scheduleOp(op)
	}
	return w.s, true
}

// scheduleOp places one operation via the three-strategy cascade. It
// always succeeds (strategy 3 forces a placement).
//
//dms:hotpath
func (w *worker) scheduleOp(op int) {
	estart := ims.EarliestStart(w.g, w.s, op, w.ii)
	if w.strategy1(op, estart) {
		w.st.Strategy1++
		return
	}
	if !w.opt.DisableChains && w.strategy2(op) {
		w.st.Strategy2++
		return
	}
	w.strategy3(op, estart)
	w.st.Strategy3++
}

// place books the node and ejects scheduled successors whose dependence
// constraints the placement violates.
//
//dms:hotpath
func (w *worker) place(op, t, cluster int) {
	w.s.Place(op, schedule.Placement{Time: t, Cluster: cluster})
	w.prevTime[op] = t
	victims := w.victims[:0]
	for _, eid := range w.g.OutEdgeIDs(op) {
		if !w.g.EdgeAlive(eid) {
			continue
		}
		e := w.g.EdgeAt(eid)
		if e.To == op {
			continue
		}
		if p, ok := w.s.At(e.To); ok && p.Time < t+e.Delay-w.ii*e.Distance {
			victims = append(victims, e.To)
		}
	}
	w.victims = victims
	for _, v := range victims {
		w.evictNode(v)
	}
}

// evictNode removes a node from the partial schedule, requeues original
// and copy operations, and dissolves every chain the node participates
// in (paper §3: "distinct actions must be taken when the unscheduled
// operation is the original producer, a move operation, or the original
// consumer"). It is a no-op for already-unscheduled nodes, which makes
// cascaded dissolution re-entrant.
//
//dms:hotpath
func (w *worker) evictNode(n int) {
	if !w.s.Scheduled(n) {
		return
	}
	w.s.Evict(n)
	w.st.Evictions++
	if w.g.Node(n).Kind != ddg.MoveNode {
		w.q.Push(n, w.heightOf(n))
	}
	// Dissolve chains last: dissolution may recursively evict this
	// node's neighbours, and n itself is already off the schedule. The
	// refs are copied because dissolution edits the per-node lists.
	if n < len(w.chainsByNode) && len(w.chainsByNode[n]) > 0 {
		for _, cid := range append([]int(nil), w.chainsByNode[n]...) { //dms:allocok deliberate copy: dissolution edits the per-node list under us
			w.dissolveChain(cid)
		}
	}
}

//dms:hotpath
func (w *worker) heightOf(n int) int {
	if n < len(w.heights) {
		return w.heights[n]
	}
	return int(^uint(0) >> 1) // moves added after height computation
}

// lowestPriority picks the eviction victim among slot occupants: the
// smallest height, ties toward the larger (younger) node ID. Moves rank
// highest so chains are only torn down when nothing else occupies the
// slot.
//
//dms:hotpath
func (w *worker) lowestPriority(occupants []int) int {
	victim := occupants[0]
	for _, n := range occupants[1:] {
		hn, hv := w.heightOf(n), w.heightOf(victim)
		if hn < hv || (hn == hv && n > victim) {
			victim = n
		}
	}
	return victim
}
