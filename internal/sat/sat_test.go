package sat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refSolve is a naive DPLL reference: exhaustive branch-and-prune over
// variables in index order. Exponential, but trustworthy — the CDCL
// solver is validated against it on randomized instances.
func refSolve(n int, clauses [][]Lit) (bool, []bool) {
	assign := make([]int8, n)
	val := func(l Lit) int8 {
		v := assign[l.Var()]
		if l&1 == 1 {
			return -v
		}
		return v
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		for _, c := range clauses {
			sat, undef := false, false
			for _, l := range c {
				switch val(l) {
				case 1:
					sat = true
				case 0:
					undef = true
				}
			}
			if !sat && !undef {
				return false
			}
		}
		if v == n {
			return true
		}
		assign[v] = 1
		if rec(v + 1) {
			return true
		}
		assign[v] = -1
		if rec(v + 1) {
			return true
		}
		assign[v] = 0
		return false
	}
	if !rec(0) {
		return false, nil
	}
	model := make([]bool, n)
	for v := range model {
		model[v] = assign[v] == 1
	}
	return true, model
}

// modelSatisfies checks the solver's model against the original
// (unsimplified) clauses.
func modelSatisfies(s *Solver, clauses [][]Lit) bool {
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if s.Value(l.Var()) != (l&1 == 1) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// pigeonhole encodes "p pigeons into h holes": at least one hole per
// pigeon, at most one pigeon per hole. UNSAT iff p > h, and for p = h+1
// it is the classic hard instance for resolution — a conflict-rich
// workload for learning and restarts.
func pigeonhole(s *Solver, p, h int) {
	s.Reset(p * h)
	lit := func(i, j int) Lit { return Pos(i*h + j) }
	for i := 0; i < p; i++ {
		row := make([]Lit, h)
		for j := 0; j < h; j++ {
			row[j] = lit(i, j)
		}
		s.AddClause(row...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(lit(i1, j).Not(), lit(i2, j).Not())
			}
		}
	}
}

// TestRandomAgainstReference cross-checks the CDCL solver against the
// DPLL reference on hundreds of random instances spanning the
// under/over-constrained range, asserting sat/unsat agreement and
// model validity. The generator is seeded, so a failure reproduces.
func TestRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19990109))
	s := New()
	sats, unsats := 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 3 + rng.Intn(8)
		nclauses := 1 + rng.Intn(9*n/2)
		clauses := make([][]Lit, nclauses)
		for i := range clauses {
			clen := 1 + rng.Intn(3)
			c := make([]Lit, clen)
			for k := range c {
				c[k] = Lit(rng.Intn(2 * n))
			}
			clauses[i] = c
		}
		s.Reset(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: unexpected error: %v", trial, err)
		}
		want, _ := refSolve(n, clauses)
		if got != want {
			t.Fatalf("trial %d (n=%d, %d clauses): CDCL says sat=%v, DPLL reference says sat=%v\nclauses: %v",
				trial, n, nclauses, got, want, clauses)
		}
		if got {
			sats++
			if !modelSatisfies(s, clauses) {
				t.Fatalf("trial %d: model does not satisfy the instance\nclauses: %v", trial, clauses)
			}
		} else {
			unsats++
		}
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("degenerate workload: %d sat / %d unsat instances; generator needs retuning", sats, unsats)
	}
}

// TestUnitPropagationChain is the unit-propagation regression fixture:
// a unit root and an implication chain must be fully assigned by
// top-level propagation, so the search makes zero decisions.
func TestUnitPropagationChain(t *testing.T) {
	const n = 20
	s := New()
	s.Reset(n)
	s.AddClause(Pos(0))
	for v := 0; v+1 < n; v++ {
		s.AddClause(Neg(v), Pos(v+1)) // v → v+1
	}
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v; want sat", ok, err)
	}
	for v := 0; v < n; v++ {
		if !s.Value(v) {
			t.Errorf("x%d = false, want true (chain propagation)", v)
		}
	}
	st := s.Stats()
	if st.Decisions != 0 {
		t.Errorf("Decisions = %d, want 0: the chain must resolve by propagation alone", st.Decisions)
	}
	if st.Propagations == 0 {
		t.Error("Propagations = 0, want > 0")
	}
}

// TestConflictAnalysisLearns is the conflict-analysis regression
// fixture. The default decision phase (false) walks straight into
// conflicts on an instance whose only model is all-true, so the solver
// must learn clauses to steer out — and still answer SAT.
func TestConflictAnalysisLearns(t *testing.T) {
	s := New()
	s.Reset(3)
	clauses := [][]Lit{
		{Pos(0), Pos(1)},
		{Pos(0), Neg(1)},
		{Neg(0), Pos(1)},
		{Neg(1), Pos(2)},
		{Neg(0), Neg(1), Pos(2)},
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v; want sat", ok, err)
	}
	if !modelSatisfies(s, clauses) {
		t.Fatal("model does not satisfy the instance")
	}
	if st := s.Stats(); st.Conflicts == 0 {
		t.Errorf("Conflicts = 0, want > 0: phase-false decisions must conflict on this fixture")
	}
}

// TestUnsatPigeonhole: p = h+1 pigeons cannot fit, and proving it
// requires real clause learning (the learnt counter must move).
func TestUnsatPigeonhole(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 3)
	ok, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if ok {
		t.Fatal("PHP(4,3) reported sat; it is unsatisfiable")
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Learnt == 0 {
		t.Errorf("Conflicts = %d, Learnt = %d; PHP(4,3) must exercise conflict analysis", st.Conflicts, st.Learnt)
	}
}

// TestSatPigeonhole: p = h pigeons fit exactly; the model must place
// every pigeon in a distinct hole.
func TestSatPigeonhole(t *testing.T) {
	const p, h = 4, 4
	s := New()
	pigeonhole(s, p, h)
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v; want sat", ok, err)
	}
	used := make([]bool, h)
	for i := 0; i < p; i++ {
		placed := false
		for j := 0; j < h; j++ {
			if s.Value(i*h + j) {
				if used[j] {
					t.Fatalf("hole %d used twice", j)
				}
				used[j] = true
				placed = true
			}
		}
		if !placed {
			t.Fatalf("pigeon %d unplaced", i)
		}
	}
}

// TestRestartBehavior is the restart regression fixture: with the
// restart interval floored to one conflict the solver restarts on a
// Luby cadence and must still prove UNSAT — restarts may discard the
// trail but never learnt clauses.
func TestRestartBehavior(t *testing.T) {
	s := New()
	s.restartBase = 1
	pigeonhole(s, 4, 3)
	ok, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if ok {
		t.Fatal("PHP(4,3) reported sat under aggressive restarts")
	}
	st := s.Stats()
	if st.Restarts == 0 {
		t.Errorf("Restarts = 0 with restartBase=1 and %d conflicts; restart scheduling is broken", st.Conflicts)
	}
}

// TestLubySequence pins the restart pacing sequence.
func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestConflictBudget: a one-conflict cap on a conflict-heavy instance
// must surface ErrBudget, the driver's timeout signal.
func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 3)
	s.MaxConflicts = 1
	_, err := s.Solve(context.Background())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Solve error = %v, want ErrBudget", err)
	}
	s.MaxConflicts = 0
}

// TestDecisionBudget: the decision cap fires on the first decision of
// an instance that propagation alone cannot finish.
func TestDecisionBudget(t *testing.T) {
	s := New()
	s.Reset(2)
	s.AddClause(Pos(0), Pos(1))
	s.MaxDecisions = 1
	_, err := s.Solve(context.Background())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Solve error = %v, want ErrBudget", err)
	}
}

// TestContextCancel: an already-canceled context aborts a long search
// at the next cooperative check and reports the context's error.
func TestContextCancel(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6) // far more than one ctx-check interval of conflicts
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := s.Solve(ctx)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve = %v, %v; want false, context.Canceled", ok, err)
	}
}

// TestAddClauseSimplification covers the level-0 clause intake rules:
// tautologies vanish, duplicates collapse, contradictory units make
// the instance trivially unsat, and the empty clause does too.
func TestAddClauseSimplification(t *testing.T) {
	s := New()
	s.Reset(2)
	s.AddClause(Pos(0), Neg(0)) // tautology: no clause stored
	if len(s.hdrs) != 0 {
		t.Errorf("tautology stored as clause")
	}
	s.AddClause(Pos(0), Pos(0), Pos(1)) // duplicates collapse to 2 lits
	if n := s.hdrs[len(s.hdrs)-1].n; n != 2 {
		t.Errorf("deduped clause has %d lits, want 2", n)
	}
	if ok, _ := s.Solve(context.Background()); !ok {
		t.Fatal("simplified instance must be sat")
	}

	s.Reset(1)
	s.AddClause(Pos(0))
	s.AddClause(Neg(0)) // contradicts the level-0 unit
	if ok, err := s.Solve(context.Background()); ok || err != nil {
		t.Fatalf("Solve = %v, %v; want false, nil", ok, err)
	}

	s.Reset(1)
	s.AddClause() // empty clause
	if ok, err := s.Solve(context.Background()); ok || err != nil {
		t.Fatalf("Solve after empty clause = %v, %v; want false, nil", ok, err)
	}
}

// TestResetReuse: one solver across instances of varying size, with
// NewVar growth in between — answers stay correct and independent.
func TestResetReuse(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	if ok, err := s.Solve(context.Background()); ok || err != nil {
		t.Fatalf("PHP(5,4): Solve = %v, %v; want false, nil", ok, err)
	}

	s.Reset(1)
	extra := s.NewVar()
	s.AddClause(Pos(0), Pos(extra))
	s.AddClause(Neg(0))
	ok, err := s.Solve(context.Background())
	if err != nil || !ok {
		t.Fatalf("Solve = %v, %v; want sat", ok, err)
	}
	if !s.Value(extra) {
		t.Error("forced NewVar variable not true in model")
	}

	pigeonhole(s, 3, 3)
	if ok, err := s.Solve(context.Background()); !ok || err != nil {
		t.Fatalf("PHP(3,3): Solve = %v, %v; want sat", ok, err)
	}
}

// TestGrowFill: grow sets every entry it exposes to the fill value and
// keeps the prefix, whether the entries come from spare capacity
// (which may hold stale values of an earlier, longer use) or from a
// reallocation. nullRef is the case that matters: 0 is a valid clause
// reference, so a reason slot left at 0 would point at a real clause.
func TestGrowFill(t *testing.T) {
	spare := make([]clauseRef, 16)
	for i := range spare {
		spare[i] = 7
	}
	for _, tc := range []struct {
		name string
		s    []clauseRef
	}{
		{"in-capacity", spare[:4]},
		{"reallocating", make([]clauseRef, 4)},
	} {
		for i := range tc.s {
			tc.s[i] = clauseRef(i)
		}
		got := grow(tc.s, 12, nullRef)
		if len(got) != 12 {
			t.Fatalf("%s: len %d, want 12", tc.name, len(got))
		}
		for i, r := range got {
			want := nullRef
			if i < 4 {
				want = clauseRef(i)
			}
			if r != want {
				t.Errorf("%s: entry %d = %d, want %d", tc.name, i, r, want)
			}
		}
	}
	if c := cap(grow(make([]int8, 4), 5, 0)); c != 8 {
		t.Errorf("growing a full 4-entry slice by one: cap %d, want 8 (doubling)", c)
	}

	w := make([][]watcher, 2)
	w[0] = make([]watcher, 3, 10)
	w = growWatches(w[:0], 4)
	if len(w) != 4 || len(w[0]) != 0 || cap(w[0]) != 10 {
		t.Errorf("growWatches: len %d, w[0] len %d cap %d; want 4 lists, w[0] empty with its cap-10 array kept",
			len(w), len(w[0]), cap(w[0]))
	}
}

// TestNewVarAmortized: adding variables one at a time to a fresh
// solver reallocates each per-variable slice O(log n) times. With
// exact-size reallocation the same loop allocated ~37k times and
// copied O(n²) entries.
func TestNewVarAmortized(t *testing.T) {
	const n, budget = 4096, 200
	allocs := testing.AllocsPerRun(1, func() {
		s := New()
		for range n {
			s.NewVar()
		}
	})
	if allocs >= budget {
		t.Fatalf("%d NewVar calls on a fresh solver allocate %.0f times, want < %d", n, allocs, budget)
	}
}

// randomInstance loads a seeded random 3-SAT instance near the
// satisfiability threshold over n variables, half of them added
// through NewVar after Reset the way internal/exact adds its counters.
func randomInstance(s *Solver, n int, seed int64) {
	s.Reset(n / 2)
	for s.NumVars() < n {
		s.NewVar()
	}
	rng := rand.New(rand.NewSource(seed))
	for range 4 * n {
		var c [3]Lit
		for k := range c {
			c[k] = Lit(2*rng.Intn(n) + rng.Intn(2))
		}
		s.AddClause(c[:]...)
	}
}

// searchState renders everything the search reads: the scalars and
// every per-variable and per-literal slice up to the variable count.
func searchState(s *Solver) string {
	n := s.nvars
	return fmt.Sprint(s.ok, n, s.hdrs, s.lits, s.watches[:2*n], s.assign[:n], s.level[:n], s.reason[:n],
		s.phase[:n], s.activity[:n], s.heap, s.heapPos[:n], s.seen[:n], s.mark[:2*n],
		s.trail, s.trailLim, s.qhead, s.varInc, s.stats)
}

// TestReuseAfterAbandonedSolve: a solve abandoned mid-search, by
// cancellation or by its conflict budget, leaves a deep trail, learnt
// clauses, saved phases and bumped activities behind. Reset must clear
// all of it: the next instance, smaller or larger than the abandoned
// one, starts from the same state and gets the same answer, model and
// Stats as on a fresh solver.
func TestReuseAfterAbandonedSolve(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ab := range []struct {
		name  string
		solve func(*Solver) (bool, error)
		want  error
	}{
		{"canceled", func(s *Solver) (bool, error) { return s.Solve(canceled) }, context.Canceled},
		{"budget", func(s *Solver) (bool, error) {
			s.MaxConflicts = 300
			defer func() { s.MaxConflicts = 0 }()
			return s.Solve(context.Background())
		}, ErrBudget},
	} {
		for _, n := range []int{24, 120} { // PHP(7,6) has 42 variables
			fresh := New()
			randomInstance(fresh, n, int64(n))
			wantState := searchState(fresh)
			wantOK, err := fresh.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !wantOK || fresh.Stats().Conflicts == 0 {
				t.Fatalf("n=%d: instance must be satisfiable and need learning (sat %v, %+v)", n, wantOK, fresh.Stats())
			}

			s := New()
			pigeonhole(s, 7, 6)
			if ok, err := ab.solve(s); ok || !errors.Is(err, ab.want) {
				t.Fatalf("%s: PHP(7,6) Solve = %v, %v; want false, %v", ab.name, ok, err, ab.want)
			}
			if len(s.trailLim) == 0 || s.Stats().Learnt == 0 {
				t.Fatalf("%s: PHP(7,6) was not abandoned mid-search", ab.name)
			}
			randomInstance(s, n, int64(n))
			if got := searchState(s); got != wantState {
				t.Errorf("%s, n=%d: state after Reset differs from a fresh solver's:\n got %s\nwant %s", ab.name, n, got, wantState)
			}
			ok, err := s.Solve(context.Background())
			if ok != wantOK || err != nil {
				t.Fatalf("%s, n=%d: reused Solve = %v, %v; fresh gave %v", ab.name, n, ok, err, wantOK)
			}
			if s.Stats() != fresh.Stats() {
				t.Errorf("%s, n=%d: reused Stats %+v, fresh %+v", ab.name, n, s.Stats(), fresh.Stats())
			}
			for v := 0; v < n; v++ {
				if s.Value(v) != fresh.Value(v) {
					t.Errorf("%s, n=%d: x%d = %v reused, %v fresh", ab.name, n, v, s.Value(v), fresh.Value(v))
				}
			}
		}
	}
}

// TestHeapProperty drives the VSIDS heap through random bumpVar,
// heapPush and heapPop sequences, with the activity increment decaying
// and jumping so activities overflow into rescales, and checks after
// every step that the heap is a max-heap, heapPos indexes it exactly
// (-1 for every absent variable) and every pop returns a variable of
// maximum activity. The reference picks the highest activity, lowest
// index on ties; ties may pop any tied variable, so the pop is checked
// by activity, and by identity when the maximum is unique.
func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19990109))
	s := New()
	rescales := 0
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(64)
		s.Reset(n)
		present := make([]bool, n)
		for v := range present {
			present[v] = true
		}
		check := func(step int, op string) {
			t.Helper()
			for i, v := range s.heap {
				if !present[v] {
					t.Fatalf("round %d step %d (%s): absent x%d in the heap", round, step, op, v)
				}
				if int(s.heapPos[v]) != i {
					t.Fatalf("round %d step %d (%s): heapPos[x%d] = %d, heap index %d", round, step, op, v, s.heapPos[v], i)
				}
				if p := (i - 1) / 2; i > 0 && s.activity[s.heap[p]] < s.activity[v] {
					t.Fatalf("round %d step %d (%s): heap[%d] activity %g below child heap[%d] %g",
						round, step, op, p, s.activity[s.heap[p]], i, s.activity[v])
				}
			}
			count := 0
			for v := 0; v < n; v++ {
				if present[v] {
					count++
				} else if s.heapPos[v] != -1 {
					t.Fatalf("round %d step %d (%s): absent x%d has heapPos %d", round, step, op, v, s.heapPos[v])
				}
			}
			if count != len(s.heap) {
				t.Fatalf("round %d step %d (%s): %d present variables, heap holds %d", round, step, op, count, len(s.heap))
			}
		}
		check(0, "reset")
		for step := 1; step <= 2000; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 5:
				op = "bump"
				inc := s.varInc
				s.bumpVar(rng.Intn(n))
				if s.varInc < inc {
					rescales++
				}
				s.varInc *= varDecayInv
				if rng.Intn(50) == 0 {
					s.varInc *= 1e40
				}
			case r < 7:
				op = "push"
				v := rng.Intn(n)
				s.heapPush(int32(v))
				present[v] = true
			default:
				op = "pop"
				if len(s.heap) == 0 {
					continue
				}
				want := -1
				for v := 0; v < n; v++ {
					if present[v] && (want < 0 || s.activity[v] > s.activity[want]) {
						want = v
					}
				}
				unique := true
				for v := 0; v < n; v++ {
					if present[v] && v != want && s.activity[v] == s.activity[want] {
						unique = false
					}
				}
				got := int(s.heapPop())
				if !present[got] || s.activity[got] != s.activity[want] || (unique && got != want) {
					t.Fatalf("round %d step %d: popped x%d (activity %g), reference x%d (activity %g)",
						round, step, got, s.activity[got], want, s.activity[want])
				}
				present[got] = false
			}
			check(step, op)
		}
	}
	if rescales == 0 {
		t.Fatal("no activity rescale happened; the test no longer covers renormalisation")
	}
}
