// Package ims implements Rau's Iterative Modulo Scheduling (IMS,
// "Iterative Modulo Scheduling", International Journal of Parallel
// Programming, 1996) — the base algorithm DMS extends and the
// unclustered baseline of the paper's evaluation.
//
// IMS schedules one loop iteration at a candidate initiation interval
// II, starting at MII = max(ResMII, RecMII). Operations are placed in
// decreasing height order. Each operation searches the II-wide window
// starting at its earliest dependence-feasible time for a
// resource-conflict-free slot; if none exists it is placed anyway
// (forced) and conflicting operations are unscheduled and retried. A
// budget bounds the total number of placements; when it is exhausted,
// II is incremented and scheduling restarts.
//
// Search is that II search with each operation pinned to a cluster.
// It is the repo's one budgeted iterative modulo scheduler outside
// DMS: ScheduleCtx runs it with every operation in cluster 0, and the
// partition-first baseline (internal/twophase) runs it with its routed
// cluster assignment.
package ims

import (
	"context"
	"fmt"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// DefaultBudgetRatio is the scheduling-attempts budget per operation;
// Rau reports ratios in the 2..6 range work well, and the evaluation
// uses the generous end so II increases reflect real resource or
// recurrence pressure rather than a starved search.
const DefaultBudgetRatio = 6

// Options tune the scheduler.
type Options struct {
	// BudgetRatio bounds scheduling attempts at BudgetRatio × ops per
	// candidate II. 0 means DefaultBudgetRatio.
	BudgetRatio int
	// MaxII caps the candidate initiation interval. 0 derives a safe
	// bound (sum of edge delays + number of operations) at which any
	// loop schedules trivially.
	MaxII int
}

// Stats reports how the scheduler worked.
type Stats struct {
	MII        int // lower bound it started from
	II         int // achieved initiation interval
	IIsTried   int // candidate IIs attempted
	Placements int // total placement operations across all IIs
	Evictions  int // operations unscheduled by backtracking
}

// MaxIIBound returns the default MaxII for a graph: the sequential-
// schedule II at which no backtracking is ever needed.
func MaxIIBound(g *ddg.Graph) int {
	sum := g.NumNodes()
	g.Edges(func(e ddg.Edge) { sum += e.Delay })
	return sum
}

// MaxII is the candidate-II ceiling every II search applies: the
// requested cap when positive, MaxIIBound(g) otherwise, and never
// below mii.
func MaxII(g *ddg.Graph, mii, requested int) int {
	if requested <= 0 {
		requested = MaxIIBound(g)
	}
	return max(requested, mii)
}

// ScheduleCtx modulo-schedules the graph on an unclustered machine
// (m.Clusters must be 1; clustered machines need DMS). The graph is
// not modified.
//
// Cancellation is cooperative: the II search checks ctx between
// candidate IIs and periodically inside each attempt's budget loop, so
// a canceled context aborts within one candidate II. The returned
// error wraps ctx.Err() so callers can distinguish cancellation from
// scheduling failure with errors.Is.
func ScheduleCtx(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	if m.Clusters != 1 {
		return nil, st, fmt.Errorf("ims: machine %s has %d clusters; IMS handles unclustered machines only", m.Name, m.Clusters)
	}
	if err := m.Validate(); err != nil {
		return nil, st, err
	}
	mii, err := g.MII(m)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := MaxII(g, mii, opt.MaxII)
	if s, ok := Search(ctx, g, m, nil, mii, maxII, opt.BudgetRatio, &st); ok {
		return s, st, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("ims: %s on %s: %w", g.Name(), m.Name, err)
	}
	return nil, st, fmt.Errorf("ims: %s did not schedule within MaxII %d", g.Name(), maxII)
}

// Search is the iterative modulo scheduler's II search: it tries each
// candidate II from mii to maxII and returns the first schedule that
// places every operation, setting st.II and accumulating IIsTried,
// Placements and Evictions into st. Operation n is placed in cluster
// cluster[n]; a nil cluster places every operation in cluster 0. A
// budgetRatio ≤ 0 means DefaultBudgetRatio. The graph is not modified.
//
// Search returns ok=false when no candidate II schedules or ctx is
// canceled (it checks ctx between candidate IIs and periodically
// inside each attempt's budget loop); the caller tells the two apart
// with ctx.Err().
func Search(ctx context.Context, g *ddg.Graph, m *machine.Machine, cluster []int, mii, maxII, budgetRatio int, st *Stats) (*schedule.Schedule, bool) {
	if budgetRatio <= 0 {
		budgetRatio = DefaultBudgetRatio
	}
	// II-invariant state is computed once and reused across candidate
	// IIs: the search never mutates the graph, so the node set, scratch
	// buffers, schedule storage and ready queue all survive — only the
	// heights are II-dependent and are recomputed into a reused buffer.
	sr := &searcher{
		g:        g,
		m:        m,
		cluster:  cluster,
		ids:      g.NodeIDs(),
		prevTime: make([]int, g.NumIDs()),
		q:        schedule.NewQueue(),
	}
	for ii := mii; ii <= maxII; ii++ {
		if ctx.Err() != nil {
			return nil, false
		}
		st.IIsTried++
		if s, ok := sr.tryII(ctx, ii, budgetRatio, st); ok {
			st.II = ii
			return s, true
		}
	}
	return nil, false
}

// searcher holds the II-invariant state of one scheduling run plus the
// per-II scratch that is rewound rather than reallocated.
type searcher struct {
	g        *ddg.Graph
	m        *machine.Machine
	cluster  []int // pinned cluster per node ID; nil = cluster 0
	ids      []int
	s        *schedule.Schedule
	heights  []int
	prevTime []int // last placement time per node ID; -1 = never scheduled
	q        *schedule.Queue
}

// tryII attempts one candidate II. It returns ok=false when the budget
// is exhausted or the context is canceled (the caller re-checks ctx).
func (sr *searcher) tryII(ctx context.Context, ii, budgetRatio int, st *Stats) (*schedule.Schedule, bool) {
	g := sr.g
	if sr.s == nil {
		sr.s = schedule.New(g, sr.m, ii)
	} else {
		sr.s.Reset(ii)
	}
	s := sr.s
	sr.heights = g.HeightsInto(ii, sr.heights)
	heights := sr.heights
	prevTime := sr.prevTime
	for i := range prevTime {
		prevTime[i] = -1
	}

	q := sr.q
	q.Reset()
	for _, n := range sr.ids {
		q.Push(n, heights[n])
	}
	budget := budgetRatio * len(sr.ids)

	for q.Len() > 0 {
		if budget == 0 {
			return nil, false
		}
		if budget&63 == 0 && ctx.Err() != nil {
			return nil, false
		}
		budget--
		op := q.Pop()
		st.Placements++
		cluster := 0
		if sr.cluster != nil {
			cluster = sr.cluster[op]
		}
		class := g.Node(op).Class

		estart := EarliestStart(g, s, op, ii)
		timeSlot, found := findSlot(s, class, cluster, estart, ii)
		if !found {
			// Forced placement at estart, but past the op's previous
			// time so it cannot cycle; make room by evicting the
			// lowest-priority occupant(s) of the target slot.
			timeSlot = estart
			if prev := prevTime[op]; prev >= 0 && prev+1 > timeSlot {
				timeSlot = prev + 1
			}
			kind := class.FU()
			for !s.Table().Free(timeSlot, cluster, class) {
				victim := lowestPriority(s.Table().Occupants(timeSlot, cluster, kind), heights)
				s.Evict(victim)
				q.Push(victim, heights[victim])
				st.Evictions++
			}
		}
		s.Place(op, schedule.Placement{Time: timeSlot, Cluster: cluster})
		prevTime[op] = timeSlot

		// Unschedule successors whose dependence constraints the new
		// placement violates (their earliest start moved past them).
		for _, eid := range g.OutEdgeIDs(op) {
			if !g.EdgeAlive(eid) {
				continue
			}
			e := g.EdgeAt(eid)
			if e.To == op {
				continue
			}
			if p, ok := s.At(e.To); ok && p.Time < timeSlot+e.Delay-ii*e.Distance {
				s.Evict(e.To)
				q.Push(e.To, heights[e.To])
				st.Evictions++
			}
		}
	}
	return s, true
}

// EarliestStart returns the smallest dependence-feasible issue time of
// op given its currently scheduled predecessors. DMS places every
// operation through it, as IMS does.
//
//dms:hotpath
func EarliestStart(g *ddg.Graph, s *schedule.Schedule, op, ii int) int {
	estart := 0
	for _, eid := range g.InEdgeIDs(op) {
		if !g.EdgeAlive(eid) {
			continue
		}
		e := g.EdgeAt(eid)
		if e.From == op {
			continue // self edges are satisfied by II ≥ RecMII
		}
		if p, ok := s.At(e.From); ok {
			if t := p.Time + e.Delay - ii*e.Distance; t > estart {
				estart = t
			}
		}
	}
	return estart
}

// findSlot scans the II-wide window for a slot of the cluster free for
// the operation class.
func findSlot(s *schedule.Schedule, class machine.OpClass, cluster, estart, ii int) (int, bool) {
	for t := estart; t < estart+ii; t++ {
		if s.Table().Free(t, cluster, class) {
			return t, true
		}
	}
	return 0, false
}

// lowestPriority picks the eviction victim: the occupant with the
// smallest height (ties broken toward the larger node ID, i.e. the one
// scheduled with less downstream work).
func lowestPriority(occupants []int, heights []int) int {
	victim := occupants[0]
	for _, n := range occupants[1:] {
		if heights[n] < heights[victim] || (heights[n] == heights[victim] && n > victim) {
			victim = n
		}
	}
	return victim
}
