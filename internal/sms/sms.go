// Package sms implements Swing Modulo Scheduling (Llosa, González,
// Ayguadé, Valero; PACT 1996) — the lifetime-sensitive modulo
// scheduler by one of the paper's authors. The paper's motivation (§1)
// is that software pipelining inflates register requirements [10]; SMS
// attacks exactly that by placing each operation as close as possible
// to its already-scheduled neighbours, scanning *backwards* from the
// latest feasible slot when only successors are scheduled (the
// "swing"), and it never backtracks.
//
// SMS serves two roles in this reproduction: an independent baseline
// for the unclustered machine, and the producer of the
// register-pressure comparison in internal/regpress that grounds the
// paper's architectural argument.
package sms

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/schedule"
)

// Options tune the scheduler.
type Options struct {
	// MaxII caps the candidate initiation interval (0 = derived).
	MaxII int
}

// Stats reports how scheduling went.
type Stats struct {
	MII      int
	II       int
	IIsTried int
	// Forward / Backward count placements by scan direction.
	Forward, Backward int
	// Promotions counts ordering repairs for structurally stuck nodes
	// (see ScheduleCtx).
	Promotions int
	// FellBack reports that SMS proper failed at every candidate II
	// and the schedule comes from the IMS fallback.
	FellBack bool
}

// ScheduleCtx modulo-schedules the graph on an unclustered machine with
// SMS. The graph is not modified.
//
// Cancellation is cooperative: ctx is checked before every
// candidate-II attempt (including the promotion retries, so a canceled
// context aborts within one attempt) and is forwarded to the IMS
// fallback. The returned error wraps ctx.Err().
func ScheduleCtx(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	if m.Clusters != 1 {
		return nil, st, fmt.Errorf("sms: machine %s has %d clusters; SMS handles unclustered machines only", m.Name, m.Clusters)
	}
	mii, err := g.MII(m)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := ims.MaxII(g, mii, opt.MaxII)
	// boost forces stuck nodes to the front of the order. SMS's
	// published ordering pulls "nodes on paths" between ordered regions
	// in together, which prevents a node from ending up with both
	// neighbours placed around a window pinned by distance-0 edges;
	// our simpler global-frontier ordering can run into that trap on
	// diamond shapes, and since such windows do not widen with II,
	// raising II would never help (LLVM's SMS-based MachinePipeliner
	// simply refuses to pipeline such loops). Instead the stuck node is
	// promoted to the front of the ordering and the attempt retried;
	// boosts are discarded between candidate IIs so a repair for one II
	// cannot poison another. If every candidate II fails, Schedule
	// falls back to IMS — the standard production-compiler safety net —
	// and records it in Stats.FellBack.
	// The swing order depends on MII (not the candidate II) and on the
	// boosts, which reset between candidate IIs — so the boost-free
	// order is II-invariant: compute it once and recompute only after a
	// promotion. The placement scratch (reservation table, times) is
	// likewise allocated once and rewound per attempt.
	baseOrder := ordering(g, mii, nil)
	sr := &searcher{
		g:     g,
		m:     m,
		ids:   g.NodeIDs(),
		times: make([]int, g.NumIDs()),
		has:   make([]bool, g.NumIDs()),
	}
	for ii := mii; ii <= maxII; ii++ {
		var boost map[int]int
		order := baseOrder
		promotions := 0
		for {
			if err := ctx.Err(); err != nil {
				return nil, st, fmt.Errorf("sms: %s on %s: %w", g.Name(), m.Name, err)
			}
			st.IIsTried++
			s, ok, stuck := sr.tryII(order, ii, &st)
			if ok {
				st.II = ii
				return s, st, nil
			}
			if stuck < 0 || promotions >= 2*g.NumNodes() {
				break // resource failure: a larger II is the only cure
			}
			if boost == nil {
				boost = make(map[int]int)
			}
			boost[stuck]++
			promotions++
			st.Promotions++
			order = ordering(g, mii, boost)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("sms: %s on %s: %w", g.Name(), m.Name, err)
	}
	s, ist, err := ims.ScheduleCtx(ctx, g, m, ims.Options{MaxII: opt.MaxII})
	if err != nil {
		return nil, st, fmt.Errorf("sms: %s failed within MaxII %d and the IMS fallback failed too: %w", g.Name(), maxII, err)
	}
	st.II = ist.II
	st.FellBack = true
	return s, st, nil
}

// ordering produces the swing node order: strongly connected components
// first by criticality (their RecMII contribution), and inside the
// growing order each next node is a neighbour of the already-ordered
// set, preferring nodes on the critical path. This keeps consecutive
// order positions adjacent in the graph so the placement scan can hug
// the neighbours. Boosted nodes are promoted to the very front (the
// stuck-node repair described in Schedule).
func ordering(g *ddg.Graph, ii int, boost map[int]int) []int {
	heights := g.Heights(ii)
	depths := depths(g, ii)

	sccs := g.SCCs()
	type comp struct {
		nodes []int
		crit  int // cycle criticality: max height+depth inside
	}
	comps := make([]comp, 0, len(sccs))
	for _, c := range sccs {
		sort.Ints(c)
		crit := 0
		for _, n := range c {
			if v := heights[n] + depths[n]; v > crit {
				crit = v
			}
		}
		// Recurrence components rank above singletons of equal span.
		if len(c) > 1 || hasSelfEdge(g, c[0]) {
			crit += 1 << 20
		}
		comps = append(comps, comp{nodes: c, crit: crit})
	}
	sort.SliceStable(comps, func(i, j int) bool {
		if comps[i].crit != comps[j].crit {
			return comps[i].crit > comps[j].crit
		}
		return comps[i].nodes[0] < comps[j].nodes[0]
	})

	// Component priority: nodes of more critical components are pulled
	// into the order earlier when adjacency does not decide.
	prio := make(map[int]int, g.NumNodes())
	for rank, c := range comps {
		for _, n := range c.nodes {
			prio[n] = len(comps) - rank
		}
	}

	// Global frontier: always prefer a node adjacent to the ordered
	// set (successors-ordered first, so producers are placed backward
	// toward their consumers), then the component priority, then the
	// node's criticality. This keeps every placement bounded on at
	// most one side until a region of the graph closes, which is what
	// lets the forward/backward scans hug the neighbours.
	ordered := make([]int, 0, g.NumNodes())
	inOrder := make(map[int]bool, g.NumNodes())
	pending := make(map[int]bool, g.NumNodes())
	for _, n := range g.NodeIDs() {
		pending[n] = true
	}
	for len(pending) > 0 {
		best, bestKey := -1, [5]int{-1, -1, -1, -1, -1}
		//dms:orderok argmax under a strict total-order key whose last component is the node ID
		for n := range pending {
			succOrdered, predOrdered := 0, 0
			for _, e := range g.Out(n) {
				if e.To != n && inOrder[e.To] {
					succOrdered = 1
				}
			}
			for _, e := range g.In(n) {
				if e.From != n && inOrder[e.From] {
					predOrdered = 1
				}
			}
			key := [5]int{boost[n], succOrdered*2 + predOrdered, prio[n], heights[n] + depths[n], -n}
			if best < 0 || keyLess(bestKey, key) {
				best, bestKey = n, key
			}
		}
		ordered = append(ordered, best)
		inOrder[best] = true
		delete(pending, best)
	}
	return ordered
}

func keyLess(a, b [5]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func hasSelfEdge(g *ddg.Graph, n int) bool {
	for _, e := range g.Out(n) {
		if e.To == n {
			return true
		}
	}
	return false
}

// depths is the dual of Heights: longest weighted path from any source.
func depths(g *ddg.Graph, ii int) []int {
	d := make([]int, g.NumIDs())
	for pass := 0; pass <= g.NumNodes(); pass++ {
		changed := false
		g.Edges(func(e ddg.Edge) {
			if v := d[e.From] + e.Delay - ii*e.Distance; v > d[e.To] {
				d[e.To] = v
				changed = true
			}
		})
		if !changed {
			return d
		}
	}
	panic(fmt.Sprintf("sms: depths(%d) called below RecMII", ii))
}

// searcher holds the II-invariant state of one SMS run: the node set
// and the placement scratch (reservation table, tentative times)
// rewound at every attempt instead of reallocated.
type searcher struct {
	g     *ddg.Graph
	m     *machine.Machine
	ids   []int
	tab   *mrt.Table
	times []int
	has   []bool
}

// tryII places every node once, in swing order, with no backtracking.
// Times may go negative during the scan; the final schedule is shifted
// by a multiple of II so they are non-negative (which changes nothing
// modulo II). On failure, stuck identifies a node whose feasibility
// window was structurally empty (lstart < estart), or -1 for a plain
// resource failure.
func (sr *searcher) tryII(order []int, ii int, st *Stats) (s *schedule.Schedule, ok bool, stuck int) {
	g, m := sr.g, sr.m
	if sr.tab == nil {
		sr.tab = mrt.New(m, ii)
	} else {
		sr.tab.Reset(ii)
	}
	tab := sr.tab
	times, has := sr.times, sr.has
	for i := range has {
		has[i] = false
	}
	class := func(n int) machine.OpClass { return g.Node(n).Class }

	const unbounded = 1 << 30
	for _, op := range order {
		estart, lstart := -unbounded, unbounded
		for _, eid := range g.InEdgeIDs(op) {
			if !g.EdgeAlive(eid) {
				continue
			}
			e := g.EdgeAt(eid)
			if e.From == op {
				continue
			}
			if has[e.From] {
				if v := times[e.From] + e.Delay - ii*e.Distance; v > estart {
					estart = v
				}
			}
		}
		for _, eid := range g.OutEdgeIDs(op) {
			if !g.EdgeAlive(eid) {
				continue
			}
			e := g.EdgeAt(eid)
			if e.To == op {
				continue
			}
			if has[e.To] {
				if v := times[e.To] - e.Delay + ii*e.Distance; v < lstart {
					lstart = v
				}
			}
		}
		found := false
		var slot int
		switch {
		case estart > -unbounded && lstart == unbounded:
			for t := estart; t < estart+ii; t++ {
				if tab.Free(t, 0, class(op)) {
					slot, found = t, true
					break
				}
			}
			st.Forward++
		case estart == -unbounded && lstart < unbounded:
			for t := lstart; t > lstart-ii; t-- {
				if tab.Free(t, 0, class(op)) {
					slot, found = t, true
					break
				}
			}
			st.Backward++
		case estart > -unbounded && lstart < unbounded:
			for t := estart; t <= lstart && t < estart+ii; t++ {
				if tab.Free(t, 0, class(op)) {
					slot, found = t, true
					break
				}
			}
			if !found {
				// A both-bounded window pinned by distance-0 edges does
				// not widen with II, whether it is empty or merely
				// resource-blocked; report the node so the caller can
				// promote it in the ordering instead of raising II.
				return nil, false, op
			}
			st.Forward++
		default:
			for t := 0; t < ii; t++ {
				if tab.Free(t, 0, class(op)) {
					slot, found = t, true
					break
				}
			}
			st.Forward++
		}
		if !found {
			return nil, false, -1
		}
		tab.Place(op, slot, 0, class(op))
		times[op] = slot
		has[op] = true
	}

	// Normalise: shift by a multiple of II so all times are ≥ 0.
	minT := 0
	for n, ok := range has {
		if ok && times[n] < minT {
			minT = times[n]
		}
	}
	shift := 0
	if minT < 0 {
		shift = ((-minT + ii - 1) / ii) * ii
	}
	s = schedule.New(g, m, ii)
	for _, n := range sr.ids {
		s.Place(n, schedule.Placement{Time: times[n] + shift, Cluster: 0})
	}
	return s, true, -1
}
