// Package exact implements optimal modulo scheduling by reduction to
// boolean satisfiability, in the style of SAT-MapIt and "SAT-based
// Exact Modulo Scheduling": candidate initiation intervals are tried
// upward from MII = max(ResMII, RecMII), each candidate II is lowered
// to CNF and handed to the CDCL solver of internal/sat, and the first
// satisfiable II is returned — with a proof, because every smaller II
// was refuted by an UNSAT answer over a complete encoding.
//
// # Encoding
//
// Per operation i the encoder uses the order encoding over the op's
// mobility window [ASAP(i), ALAP(i)]: g(i,t) ≡ "t(i) ≥ t", chained by
// ladder clauses ¬g(i,t+1) ∨ g(i,t), channeled to exact-time
// variables x(i,t) ≡ "t(i) = t" (exactly-one holds by construction).
// A dependence u→v with delay d and iteration distance k contributes
// t(v) ≥ t(u) + d − II·k as binary clauses ¬g(u,t) ∨ g(v,t+d−II·k);
// the windows are computed as longest-path fixpoints of exactly these
// constraints, so the clauses stay inside both windows. Resource
// legality books each op's residue t(i) mod II into its functional
// unit kind and bounds every (kind, slot) cell by the machine's
// capacity with a Sinz sequential-counter at-most-k encoding — the
// CNF image of the modulo reservation table.
//
// # Completeness
//
// Mobility windows need a schedule-length horizon T. A too-small T
// can make a feasible II look UNSAT, so UNSAT answers deepen the
// horizon (doubling) up to Tmax = II·(W+1), W = Σ over live edges of
// max(delay, 1); a residue-decomposition argument shows any feasible
// II admits a schedule of makespan below that bound, so UNSAT at Tmax
// certifies infeasibility of the II itself. SAT answers are valid at
// any horizon. The first probe uses T = C + 1 + II (C = critical path
// through the window fixpoints): one II of slack past the critical
// path. That keeps instances small and almost always suffices: none
// of the 600 pinned-corpus jobs on Unclustered(1/2/4) deepens, and 1
// of 4500 on a fresh 1500-loop corpus does, once.
//
// The scheduler targets unclustered (single-cluster) machines, like
// IMS. Against clustered configurations it still yields the canonical
// lower bound: the optimum on the machine with all units pooled.
package exact

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/sat"
	"repro/internal/schedule"
)

// Options tune the exact scheduler.
type Options struct {
	// MaxII caps the candidate initiation interval. 0 derives the same
	// safe bound as IMS (ops + sum of edge delays), at which any loop
	// schedules trivially.
	MaxII int
	// MaxConflicts and MaxDecisions bound total solver effort across
	// all candidate IIs and horizons of one Schedule call; 0 means
	// unlimited. Exhaustion returns an error wrapping
	// context.DeadlineExceeded, which the driver maps to its timeout
	// code.
	MaxConflicts int64
	MaxDecisions int64
}

// Stats reports how the exact scheduler worked.
type Stats struct {
	MII      int // lower bound the search started from
	II       int // achieved (and proved optimal) initiation interval
	IIsTried int // candidate IIs attempted
	Solves   int // SAT solver invocations (horizon deepenings included)

	// Cumulative solver work across all invocations.
	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// ScheduleCtx finds a provably optimal modulo schedule of the graph on
// an unclustered machine (m.Clusters must be 1). The graph is not
// modified. Cancellation is cooperative: the II search checks ctx
// between candidate IIs and the SAT solver checks it every few hundred
// conflicts, so a canceled context aborts mid-search. The returned
// error wraps ctx.Err() on cancellation and context.DeadlineExceeded
// on budget exhaustion.
func ScheduleCtx(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	var st Stats
	if m.Clusters != 1 {
		return nil, st, fmt.Errorf("exact: machine %s has %d clusters; the exact scheduler handles unclustered machines only", m.Name, m.Clusters)
	}
	if err := m.Validate(); err != nil {
		return nil, st, err
	}
	mii, err := g.MII(m)
	if err != nil {
		return nil, st, err
	}
	st.MII = mii
	maxII := ims.MaxII(g, mii, opt.MaxII)
	enc := newEncoder(g, m)
	defer solvers.Put(enc.s)
	for ii := mii; ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("exact: %s on %s: %w", g.Name(), m.Name, err)
		}
		st.IIsTried++
		found, err := enc.tryII(ctx, ii, opt, &st)
		if err != nil {
			return nil, st, fmt.Errorf("exact: %s on %s: %w", g.Name(), m.Name, err)
		}
		if found {
			st.II = ii
			s := schedule.New(g, m, ii)
			for _, id := range enc.ids {
				s.Place(id, schedule.Placement{Time: enc.times[id], Cluster: 0})
			}
			return s, st, nil
		}
	}
	return nil, st, fmt.Errorf("exact: %s did not schedule within MaxII %d", g.Name(), maxII)
}

// solvers recycles SAT solvers across Schedule calls. Reset
// re-initialises all search state and solveAt sets both budgets before
// every solve, so a pooled solver answers exactly as a fresh one would
// while keeping the arenas an earlier instance grew.
var solvers = sync.Pool{New: func() any { return sat.New() }}

// encoder holds the graph-invariant inputs, a solver taken from the
// pool for the length of one Schedule call and Reset for every
// (II, horizon) instance, and per-solve scratch that is resized rather
// than reallocated across candidate IIs and horizons.
type encoder struct {
	g *ddg.Graph
	m *machine.Machine
	s *sat.Solver

	ids []int // live node IDs
	w   int   // Σ max(delay,1) over live edges; Tmax = II·(w+1)

	asap, down []int // longest-path window fixpoints, per node ID
	lo, hi     []int // mobility window at the current horizon
	gBase      []int // first order-encoding var of node i (g(i,lo+1)..g(i,hi))
	xBase      []int // first exact-time var of node i (x(i,lo)..x(i,hi))
	times      []int // decoded issue times

	clauseBuf []sat.Lit
	slotLits  []sat.Lit
	kindOps   []int
}

// newEncoder takes a solver from the pool; the caller puts it back.
func newEncoder(g *ddg.Graph, m *machine.Machine) *encoder {
	e := &encoder{g: g, m: m, s: solvers.Get().(*sat.Solver), ids: g.NodeIDs()}
	g.Edges(func(ed ddg.Edge) {
		if ed.Delay > 1 {
			e.w += ed.Delay
		} else {
			e.w++
		}
	})
	return e
}

// tryII probes one candidate II, deepening the horizon on UNSAT until
// Tmax certifies the II infeasible. It returns found=true with the
// schedule times decoded into e.times.
func (e *encoder) tryII(ctx context.Context, ii int, opt Options, st *Stats) (bool, error) {
	c := e.computeWindows(ii)
	tmax := ii * (e.w + 1)
	t := c + 1 + ii
	if t > tmax {
		t = tmax
	}
	for {
		ok, err := e.solveAt(ctx, ii, t, opt, st)
		if err != nil {
			return false, err
		}
		if ok {
			e.decode()
			return true, nil
		}
		if t >= tmax {
			return false, nil // UNSAT at the completeness bound: II infeasible
		}
		t *= 2
		if t > tmax {
			t = tmax
		}
	}
}

// computeWindows fixes the II-dependent longest-path quantities: asap
// (longest path into each node) and down (longest path out of each
// node, via ddg's height computation), with edge weights
// delay − II·distance. It returns the critical path length
// C = max(asap+down). Requires II ≥ RecMII, which holds because the
// search starts at MII.
func (e *encoder) computeWindows(ii int) int {
	g := e.g
	n := g.NumIDs()
	e.asap = resizeInts(e.asap, n)
	for pass := 0; ; pass++ {
		if pass > g.NumNodes() {
			panic(fmt.Sprintf("exact: %s: window fixpoint diverges at II=%d (below RecMII?)", g.Name(), ii))
		}
		changed := false
		g.Edges(func(ed ddg.Edge) {
			if t := e.asap[ed.From] + ed.Delay - ii*ed.Distance; t > e.asap[ed.To] {
				e.asap[ed.To] = t
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	e.down = g.HeightsInto(ii, e.down)
	c := 0
	for _, id := range e.ids {
		if v := e.asap[id] + e.down[id]; v > c {
			c = v
		}
	}
	return c
}

// solveAt encodes the (II, horizon) instance and runs the solver,
// charging its work against the caller's cumulative budget.
func (e *encoder) solveAt(ctx context.Context, ii, horizon int, opt Options, st *Stats) (bool, error) {
	g, s := e.g, e.s
	n := g.NumIDs()
	e.lo = resizeInts(e.lo, n)
	e.hi = resizeInts(e.hi, n)
	e.gBase = resizeInts(e.gBase, n)
	e.xBase = resizeInts(e.xBase, n)
	nvars := 0
	for _, id := range e.ids {
		e.lo[id] = e.asap[id]
		e.hi[id] = horizon - 1 - e.down[id]
		if e.hi[id] < e.lo[id] {
			return false, nil // horizon below the critical path; deepen
		}
		width := e.hi[id] - e.lo[id]
		e.gBase[id] = nvars
		nvars += width
		e.xBase[id] = nvars
		nvars += width + 1
	}
	s.Reset(nvars)
	if opt.MaxConflicts > 0 {
		rem := opt.MaxConflicts - st.Conflicts
		if rem <= 0 {
			return false, budgetErr(ii, st)
		}
		s.MaxConflicts = rem
	} else {
		s.MaxConflicts = 0
	}
	if opt.MaxDecisions > 0 {
		rem := opt.MaxDecisions - st.Decisions
		if rem <= 0 {
			return false, budgetErr(ii, st)
		}
		s.MaxDecisions = rem
	} else {
		s.MaxDecisions = 0
	}
	e.encode(ii)
	ok, err := s.Solve(ctx)
	sst := s.Stats()
	st.Solves++
	st.Conflicts += sst.Conflicts
	st.Decisions += sst.Decisions
	st.Propagations += sst.Propagations
	if err != nil {
		if errors.Is(err, sat.ErrBudget) {
			return false, budgetErr(ii, st)
		}
		return false, err
	}
	return ok, nil
}

func budgetErr(ii int, st *Stats) error {
	return fmt.Errorf("effort budget exhausted at II=%d (%d conflicts, %d decisions over %d solves): %w",
		ii, st.Conflicts, st.Decisions, st.Solves, context.DeadlineExceeded)
}

// gLit maps (node, t) to the order-encoding literal for "t(i) ≥ t".
// The second return distinguishes the constant boundary cases:
// +1 means constant true (t at or below the window), -1 constant false
// (t above it), 0 a real variable.
func (e *encoder) gLit(i, t int) (sat.Lit, int8) {
	if t <= e.lo[i] {
		return 0, 1
	}
	if t > e.hi[i] {
		return 0, -1
	}
	return sat.Pos(e.gBase[i] + t - e.lo[i] - 1), 0
}

// xLit maps (node, t) to the exact-time literal "t(i) = t"; t must lie
// inside the window.
func (e *encoder) xLit(i, t int) sat.Lit {
	return sat.Pos(e.xBase[i] + t - e.lo[i])
}

// encode emits the full CNF for the current windows at candidate II.
func (e *encoder) encode(ii int) {
	g, s := e.g, e.s

	// Per-op structure: ladder + channeling (implies exactly-one time).
	for _, i := range e.ids {
		lo, hi := e.lo[i], e.hi[i]
		for t := lo + 1; t < hi; t++ {
			gt, _ := e.gLit(i, t)
			gn, _ := e.gLit(i, t+1)
			s.AddClause(gn.Not(), gt)
		}
		for t := lo; t <= hi; t++ {
			x := e.xLit(i, t)
			if gt, c := e.gLit(i, t); c == 0 {
				s.AddClause(x.Not(), gt) // x(t) → t(i) ≥ t
			}
			if gn, c := e.gLit(i, t+1); c == 0 {
				s.AddClause(x.Not(), gn.Not()) // x(t) → t(i) < t+1
			}
			// ¬g(t) ∨ g(t+1) ∨ x(t): the time the ladder stops is taken.
			e.clauseBuf = e.clauseBuf[:0]
			if gt, c := e.gLit(i, t); c == 0 {
				e.clauseBuf = append(e.clauseBuf, gt.Not())
			}
			if gn, c := e.gLit(i, t+1); c == 0 {
				e.clauseBuf = append(e.clauseBuf, gn)
			}
			e.clauseBuf = append(e.clauseBuf, x)
			s.AddClause(e.clauseBuf...)
		}
	}

	// Dependences: t(v) ≥ t(u) + delay − II·distance. The windows are
	// fixpoints of these very constraints, so g(v, t+δ) never falls off
	// v's window for t inside u's (the constant branches are
	// defensive).
	g.Edges(func(ed ddg.Edge) {
		if ed.From == ed.To {
			return // self edges hold by II ≥ RecMII
		}
		u, v := ed.From, ed.To
		delta := ed.Delay - ii*ed.Distance
		t := e.lo[u] + 1
		if from := e.lo[v] - delta + 1; from > t {
			t = from
		}
		for ; t <= e.hi[u]; t++ {
			gu, _ := e.gLit(u, t)
			gv, c := e.gLit(v, t+delta)
			switch c {
			case 1:
				continue
			case -1:
				s.AddClause(gu.Not())
			default:
				s.AddClause(gu.Not(), gv)
			}
		}
	})

	// Resources: for every (kind, modulo slot), at most capacity ops.
	for k := 0; k < machine.NumFUKinds; k++ {
		capac := e.m.PerCluster[k]
		e.kindOps = e.kindOps[:0]
		for _, i := range e.ids {
			if g.Node(i).Class.FU() == machine.FUKind(k) {
				e.kindOps = append(e.kindOps, i)
			}
		}
		if len(e.kindOps) <= capac {
			continue // the kind can never oversubscribe a slot
		}
		for slot := 0; slot < ii; slot++ {
			e.slotLits = e.slotLits[:0]
			for _, i := range e.kindOps {
				lo, hi := e.lo[i], e.hi[i]
				// First t ≥ lo with t ≡ slot (mod II); t ≥ 0 throughout.
				t := lo + ((slot-lo)%ii+ii)%ii
				if t > hi {
					continue // op can never occupy this slot
				}
				if t+ii > hi {
					// Single candidate time: book x directly.
					e.slotLits = append(e.slotLits, e.xLit(i, t))
					continue
				}
				// Several candidate times map to the slot: funnel them
				// through one occupancy variable (one direction is
				// enough — at-most-k only pushes it toward false).
				y := sat.Pos(s.NewVar())
				for ; t <= hi; t += ii {
					s.AddClause(e.xLit(i, t).Not(), y)
				}
				e.slotLits = append(e.slotLits, y)
			}
			if len(e.slotLits) > capac {
				e.addAtMostK(e.slotLits, capac)
			}
		}
	}
}

// addAtMostK emits the Sinz sequential-counter encoding of
// "at most k of lits are true" (k ≥ 1): register variables
// r(i,j) ≡ "at least j+1 of lits[0..i] are true" with unary counting
// clauses.
func (e *encoder) addAtMostK(lits []sat.Lit, k int) {
	s := e.s
	n := len(lits)
	base := -1
	for i := 0; i < (n-1)*k; i++ {
		v := s.NewVar()
		if base < 0 {
			base = v
		}
	}
	r := func(i, j int) sat.Lit { return sat.Pos(base + i*k + j) }
	s.AddClause(lits[0].Not(), r(0, 0))
	for j := 1; j < k; j++ {
		s.AddClause(r(0, j).Not())
	}
	for i := 1; i < n-1; i++ {
		s.AddClause(lits[i].Not(), r(i, 0))
		s.AddClause(r(i-1, 0).Not(), r(i, 0))
		for j := 1; j < k; j++ {
			s.AddClause(lits[i].Not(), r(i-1, j-1).Not(), r(i, j))
			s.AddClause(r(i-1, j).Not(), r(i, j))
		}
		s.AddClause(lits[i].Not(), r(i-1, k-1).Not())
	}
	s.AddClause(lits[n-1].Not(), r(n-2, k-1).Not())
}

// decode reads issue times out of the model: t(i) is the window start
// plus the length of the true prefix of the g ladder.
func (e *encoder) decode() {
	e.times = resizeInts(e.times, e.g.NumIDs())
	for _, i := range e.ids {
		t := e.lo[i]
		for tt := e.lo[i] + 1; tt <= e.hi[i]; tt++ {
			if !e.s.Value(e.gBase[i] + tt - e.lo[i] - 1) {
				break
			}
			t = tt
		}
		e.times[i] = t
	}
}

// resizeInts returns s with exactly n zeroed entries, reallocating
// only on growth.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
