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
//  3. Schedule: ims.Search, the iterative modulo scheduler's own
//     budgeted II search, places each operation in its pinned cluster.
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
	st.MovesInserted = route(work, m, assign)

	mii, err := pinnedMII(work, m, assign, recMII)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := ims.MaxII(work, mii, opt.MaxII)
	// Pin the cluster assignment into a dense slice for the search.
	cluster := make([]int, work.NumIDs())
	for n, c := range assign {
		cluster[n] = c
	}
	var ist ims.Stats
	s, ok := ims.Search(ctx, work, m, cluster, mii, maxII, opt.BudgetRatio, &ist)
	st.II, st.IIsTried, st.Placements, st.Evictions = ist.II, ist.IIsTried, ist.Placements, ist.Evictions
	if ok {
		return s, st, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("twophase: %s on %s: %w", g.Name(), m.Name, err)
	}
	return nil, st, fmt.Errorf("twophase: %s did not schedule on %s within MaxII %d", g.Name(), m.Name, maxII)
}

// partition assigns every live node a cluster: greedy in decreasing
// height order (neighbour-affine, load-capped), then refined by
// single-node moves that lower the communication cost. recMII is the
// graph's RecMII, precomputed so the II search can share one
// recurrence analysis with pinnedMII.
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
func route(g *ddg.Graph, m *machine.Machine, assign map[int]int) int {
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
	return inserted
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
	return res, nil
}
