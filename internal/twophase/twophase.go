// Package twophase implements the partition-first baseline the paper
// contrasts DMS with (§2): cluster assignment is decided *before*
// modulo scheduling — the approach of Fernandes et al.'s earlier
// technical report and of Nystrom & Eichenberger (MICRO-31, 1998) —
// and the scheduler then works with pinned clusters.
//
// The pipeline is:
//
//  1. Partition: a greedy priority-ordered assignment balances the
//     load of every functional-unit kind across clusters while keeping
//     true-dependence neighbours close on the ring, followed by
//     Kernighan–Lin-style refinement sweeps that move single nodes to
//     reduce communication cost.
//  2. Route: every true dependence that still crosses
//     indirectly-connected clusters gets a static chain of move
//     operations along the cheaper ring direction.
//  3. Schedule: an IMS-style budgeted modulo scheduler places each
//     operation in its pinned cluster.
//
// Because the assignment cannot react to scheduling conflicts, the
// achieved II is generally no better — and often worse — than DMS's
// single-phase result; quantifying that gap is the point of the
// baseline (see BenchmarkTwoPhaseVsDMS).
package twophase

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Options tune the baseline.
type Options struct {
	// BudgetRatio bounds scheduling attempts per candidate II
	// (0 = ims.DefaultBudgetRatio).
	BudgetRatio int
	// MaxII caps the candidate II (0 = derived bound).
	MaxII int
	// RefinementPasses is the number of KL-style improvement sweeps
	// over the initial partition (default 2).
	RefinementPasses int
	// LoadSlack is the extra per-(cluster, kind) headroom above the
	// perfectly balanced load during partitioning (default 1).
	LoadSlack int
}

func (o Options) budgetRatio() int {
	if o.BudgetRatio <= 0 {
		return ims.DefaultBudgetRatio
	}
	return o.BudgetRatio
}

func (o Options) refinementPasses() int {
	if o.RefinementPasses <= 0 {
		return 2
	}
	return o.RefinementPasses
}

func (o Options) loadSlack() int {
	if o.LoadSlack <= 0 {
		return 1
	}
	return o.LoadSlack
}

// Stats reports how the baseline worked.
type Stats struct {
	MII        int
	II         int
	IIsTried   int
	Placements int
	Evictions  int
	// MovesInserted counts the statically routed chain moves.
	MovesInserted int
	// CommCost is the partition's total ring-distance overshoot
	// (Σ max(0, distance−1) over carried edges) before routing.
	CommCost int
}

// ScheduleCtx runs the two-phase baseline. The input graph is cloned;
// the returned schedule references the clone with its static moves.
//
// Cancellation is cooperative: the II search checks ctx between
// candidate IIs and periodically inside each attempt's budget loop, so
// a canceled context aborts within one candidate II. The returned
// error wraps ctx.Err().
func ScheduleCtx(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	if err := m.Validate(); err != nil {
		return nil, st, err
	}
	work := g.Clone()

	// RecMII is II-invariant and needed by both the partitioner (height
	// priorities) and the pinned resource bound: compute it once.
	recMII := work.RecMII()
	assign := partition(work, m, opt, recMII)
	st.CommCost = commCost(work, m, assign)
	moves, err := route(work, m, assign)
	if err != nil {
		return nil, st, err
	}
	st.MovesInserted = moves

	mii, err := pinnedMII(work, m, assign, recMII)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := opt.MaxII
	if maxII <= 0 {
		maxII = ims.MaxIIBound(work)
	}
	if maxII < mii {
		maxII = mii
	}
	// Pin the cluster assignment into a dense slice and reuse the
	// schedule, queue and per-node scratch across candidate IIs.
	sr := &searcher{
		g:        work,
		m:        m,
		ids:      work.NodeIDs(),
		assign:   make([]int, work.NumIDs()),
		prevTime: make([]int, work.NumIDs()),
		q:        schedule.NewQueue(),
	}
	for n, c := range assign {
		sr.assign[n] = c
	}
	for ii := mii; ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("twophase: %s on %s: %w", g.Name(), m.Name, err)
		}
		st.IIsTried++
		if s, ok := sr.tryII(ctx, ii, opt.budgetRatio(), &st); ok {
			st.II = ii
			return s, st, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("twophase: %s on %s: %w", g.Name(), m.Name, err)
	}
	return nil, st, fmt.Errorf("twophase: %s did not schedule on %s within MaxII %d", g.Name(), m.Name, maxII)
}

// Partition assigns every live node a cluster: greedy in decreasing
// height order (neighbour-affine, load-capped), then refined by
// single-node moves that lower the communication cost.
func Partition(g *ddg.Graph, m *machine.Machine, opt Options) map[int]int {
	return partition(g, m, opt, g.RecMII())
}

// partition is Partition with the graph's RecMII precomputed, so the
// II search can share one recurrence analysis with pinnedMII.
func partition(g *ddg.Graph, m *machine.Machine, opt Options, recMII int) map[int]int {
	assign := make(map[int]int, g.NumNodes())
	if m.Clusters == 1 {
		for _, id := range g.NodeIDs() {
			assign[id] = 0
		}
		return assign
	}

	counts := g.CountKinds()
	cap := func(k machine.FUKind) int {
		per := (counts[k] + m.TotalFUs(k) - 1) / max(1, m.TotalFUs(k)) // ≈ ResMII share
		_ = per
		// Balanced share of operations of this kind per cluster.
		share := (counts[k] + m.Clusters - 1) / m.Clusters
		return share + opt.loadSlack()
	}
	load := make([][]int, m.Clusters)
	for c := range load {
		load[c] = make([]int, machine.NumFUKinds)
	}

	heights := g.Heights(recMII)
	order := g.NodeIDs()
	sort.Slice(order, func(i, j int) bool {
		if heights[order[i]] != heights[order[j]] {
			return heights[order[i]] > heights[order[j]]
		}
		return order[i] < order[j]
	})

	neighbourCost := func(n, c int) int {
		cost := 0
		for _, e := range g.In(n) {
			if e.Carries && e.From != n {
				if ac, ok := assign[e.From]; ok {
					cost += chainMoves(m, ac, c)
				}
			}
		}
		for _, e := range g.Out(n) {
			if e.Carries && e.To != n {
				if ac, ok := assign[e.To]; ok {
					cost += chainMoves(m, c, ac)
				}
			}
		}
		return cost
	}

	for _, n := range order {
		kind := g.Node(n).Class.FU()
		best, bestCost := -1, 0
		for c := 0; c < m.Clusters; c++ {
			if load[c][kind] >= cap(kind) {
				continue
			}
			cost := neighbourCost(n, c)*1000 + load[c][kind]*10 + c
			if best < 0 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if best < 0 { // every cluster at cap: take the least loaded
			for c := 0; c < m.Clusters; c++ {
				if best < 0 || load[c][kind] < load[best][kind] {
					best = c
				}
			}
		}
		assign[n] = best
		load[best][kind]++
	}

	// Refinement: move single nodes when that lowers communication
	// cost without blowing the load cap.
	for pass := 0; pass < opt.refinementPasses(); pass++ {
		improved := false
		for _, n := range order {
			kind := g.Node(n).Class.FU()
			cur := assign[n]
			curCost := neighbourCost(n, cur)
			for c := 0; c < m.Clusters; c++ {
				if c == cur || load[c][kind] >= cap(kind) {
					continue
				}
				if neighbourCost(n, c) < curCost {
					load[cur][kind]--
					load[c][kind]++
					assign[n] = c
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return assign
}

// chainMoves is the number of moves needed between two clusters.
func chainMoves(m *machine.Machine, a, b int) int {
	d := m.RingDistance(a, b)
	if d <= 1 {
		return 0
	}
	return d - 1
}

func commCost(g *ddg.Graph, m *machine.Machine, assign map[int]int) int {
	cost := 0
	g.Edges(func(e ddg.Edge) {
		if e.Carries {
			cost += chainMoves(m, assign[e.From], assign[e.To])
		}
	})
	return cost
}

// route statically inserts move chains for every carried edge between
// indirectly-connected clusters, choosing the ring direction with
// fewer moves (ties: fewer moves already routed through the path).
func route(g *ddg.Graph, m *machine.Machine, assign map[int]int) (int, error) {
	moveLat := g.Lat().Of(machine.Move)
	copyLoad := make([]int, m.Clusters)
	inserted := 0
	var farEdges []ddg.Edge
	g.Edges(func(e ddg.Edge) {
		if e.Carries && !m.Adjacent(assign[e.From], assign[e.To]) {
			farEdges = append(farEdges, e)
		}
	})
	for _, e := range farEdges {
		paths := m.ChainPaths(assign[e.From], assign[e.To])
		best := paths[0]
		if len(paths) > 1 && len(paths[1].Via) == len(paths[0].Via) &&
			pathLoad(copyLoad, paths[1].Via) < pathLoad(copyLoad, paths[0].Via) {
			best = paths[1]
		}
		g.RemoveEdge(e.ID)
		prev, prevDelay, prevDist := e.From, e.Delay, e.Distance
		for h, via := range best.Via {
			mv := g.AddNode(machine.Move, ddg.MoveNode,
				fmt.Sprintf("%s.tp%d.%d", g.Node(e.From).Name, e.ID, h), -1)
			assign[mv] = via
			copyLoad[via]++
			g.AddEdge(prev, mv, prevDelay, prevDist, true)
			prev, prevDelay, prevDist = mv, moveLat, 0
			inserted++
		}
		g.AddEdge(prev, e.To, prevDelay, prevDist, true)
	}
	return inserted, nil
}

func pathLoad(load []int, via []int) int {
	n := 0
	for _, c := range via {
		n += load[c]
	}
	return n
}

// pinnedMII is the resource bound with the partition fixed: the
// busiest (cluster, kind) pair sets the floor, which is why a bad
// partition costs II before scheduling even starts.
func pinnedMII(g *ddg.Graph, m *machine.Machine, assign map[int]int, recMII int) (int, error) {
	load := make([][]int, m.Clusters)
	for c := range load {
		load[c] = make([]int, machine.NumFUKinds)
	}
	var err error
	g.Nodes(func(n ddg.Node) {
		load[assign[n.ID]][n.Class.FU()]++
	})
	res := recMII
	for c := 0; c < m.Clusters; c++ {
		for k := machine.FUKind(0); int(k) < machine.NumFUKinds; k++ {
			if load[c][k] == 0 {
				continue
			}
			units := m.Capacity(c, k)
			if units == 0 {
				return 0, fmt.Errorf("twophase: cluster %d has %d %v ops but no %v units", c, load[c][k], k, k)
			}
			if need := (load[c][k] + units - 1) / units; need > res {
				res = need
			}
		}
	}
	return res, err
}

// searcher holds the II-invariant state of the pinned-cluster II
// search plus per-II scratch rewound between candidates.
type searcher struct {
	g        *ddg.Graph
	m        *machine.Machine
	ids      []int
	assign   []int // pinned cluster per node ID
	s        *schedule.Schedule
	heights  []int
	prevTime []int // last placement time per node; -1 = never scheduled
	q        *schedule.Queue
}

// tryII is the IMS core with pinned clusters. It returns ok=false when
// the budget is exhausted or the context is canceled (the caller
// re-checks ctx).
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

	heightOf := func(n int) int {
		if n < len(heights) {
			return heights[n]
		}
		return int(^uint(0) >> 1)
	}

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
		cluster := sr.assign[op]
		class := g.Node(op).Class

		estart := 0
		for _, eid := range g.InEdgeIDs(op) {
			if !g.EdgeAlive(eid) {
				continue
			}
			e := g.EdgeAt(eid)
			if e.From == op {
				continue
			}
			if p, ok := s.At(e.From); ok {
				if t := p.Time + e.Delay - ii*e.Distance; t > estart {
					estart = t
				}
			}
		}
		timeSlot, found := -1, false
		for t := estart; t < estart+ii; t++ {
			if s.Table().Free(t, cluster, class) {
				timeSlot, found = t, true
				break
			}
		}
		if !found {
			timeSlot = estart
			if prev := prevTime[op]; prev >= 0 && prev+1 > timeSlot {
				timeSlot = prev + 1
			}
			kind := class.FU()
			for !s.Table().Free(timeSlot, cluster, class) {
				occ := s.Table().Occupants(timeSlot, cluster, kind)
				victim := occ[0]
				for _, n := range occ[1:] {
					if heightOf(n) < heightOf(victim) || (heightOf(n) == heightOf(victim) && n > victim) {
						victim = n
					}
				}
				s.Evict(victim)
				q.Push(victim, heightOf(victim))
				st.Evictions++
			}
		}
		s.Place(op, schedule.Placement{Time: timeSlot, Cluster: cluster})
		prevTime[op] = timeSlot
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
				q.Push(e.To, heightOf(e.To))
				st.Evictions++
			}
		}
	}
	return s, true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
