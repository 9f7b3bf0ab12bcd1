// Package sat implements a small conflict-driven clause-learning
// (CDCL) boolean satisfiability solver: two-watched-literal unit
// propagation, first-UIP clause learning, VSIDS-style variable
// activity with a binary heap, phase saving and Luby restarts on a
// short unit of 16 conflicts.
//
// The solver exists to serve internal/exact, which lowers modulo
// scheduling at a candidate II to CNF and needs (a) proved UNSAT
// answers for optimality certification, (b) an effort budget
// (conflict/decision caps) so one pathological loop cannot stall a
// batch, and (c) cooperative cancellation through context. It is
// deliberately dependency-free and map-free: all state lives in flat
// slices indexed by variable or literal, Reset reuses every backing
// array, and given the same clauses in the same order the search is
// bit-for-bit deterministic.
package sat

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudget is returned by Solve when the configured conflict or
// decision budget is exhausted before the search reaches an answer.
var ErrBudget = errors.New("sat: effort budget exhausted")

// Lit is a literal: variable v is encoded as 2v (positive) or 2v+1
// (negated). The encoding doubles as a dense index into the watch
// lists.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negated literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal for diagnostics, e.g. "x3" or "~x3".
func (l Lit) String() string {
	if l&1 == 1 {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// clauseRef indexes the clause header arena; nullRef marks "no clause"
// (decision or top-level assignments).
type clauseRef int32

const nullRef clauseRef = -1

// clauseHdr locates one clause inside the flat literal arena.
type clauseHdr struct {
	off, n int32
	learnt bool
}

// watcher is one entry of a literal's watch list. blocker is a
// heuristic literal from the clause: when it is already true the
// clause is satisfied and need not be touched at all.
type watcher struct {
	ref     clauseRef
	blocker Lit
}

// Stats counts solver work since the last Reset.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
}

const (
	// defaultRestartBase scales the Luby sequence into conflict counts.
	// The exact scheduler's instances are mostly satisfiable and answer
	// within a few conflicts once the search leaves a bad subtree; a
	// unit of 100 left tail jobs waiting for the restart at conflict
	// 100, 200 or 400. A unit of 16 cut conflicts per job on the pinned
	// corpus from 20.8 to 5.7 without changing a single II.
	defaultRestartBase = 16
	// varDecayInv grows the activity increment each conflict, which is
	// equivalent to decaying all activities by 0.95.
	varDecayInv = 1 / 0.95
	// activityRescale triggers renormalisation before float64 overflow.
	activityRescale = 1e100
)

// Solver is a reusable CDCL instance. The zero value is not ready;
// use New, then Reset between instances to reuse the scratch.
type Solver struct {
	// MaxConflicts and MaxDecisions bound the search effort counted
	// from the last Reset; 0 means unlimited. Exhaustion makes Solve
	// return ErrBudget.
	MaxConflicts int64
	MaxDecisions int64

	ok    bool // false once an empty clause is derived at level 0
	nvars int

	hdrs []clauseHdr
	lits []Lit // flat clause arena

	watches [][]watcher // indexed by Lit

	assign []int8 // per var: 0 undef, +1 true, -1 false
	level  []int32
	reason []clauseRef
	phase  []int8 // saved polarity for the decision heuristic

	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     []int32 // binary max-heap of variables ordered by activity
	heapPos  []int32 // per var: heap index, -1 when absent

	seen      []int8 // per var scratch of analyze
	learntBuf []Lit  // learnt clause under construction
	addBuf    []Lit  // AddClause simplification scratch
	mark      []int8 // per lit scratch of AddClause dedupe

	restartBase int64

	model []int8

	stats Stats
}

// New returns an empty solver with zero variables.
func New() *Solver {
	s := &Solver{restartBase: defaultRestartBase}
	s.Reset(0)
	return s
}

// Reset re-initialises the solver for a fresh instance of n variables,
// keeping the backing storage of every internal slice so repeated
// encode/solve cycles (the II search of internal/exact) do not
// reallocate. Budgets (MaxConflicts/MaxDecisions) are configuration
// and survive Reset.
func (s *Solver) Reset(n int) {
	s.ok = true
	s.nvars = n
	s.hdrs = s.hdrs[:0]
	s.lits = s.lits[:0]
	s.watches = growWatches(s.watches[:0], 2*n)
	s.assign = grow(s.assign[:0], n, 0)
	s.level = grow(s.level[:0], n, 0)
	s.reason = grow(s.reason[:0], n, nullRef)
	s.phase = grow(s.phase[:0], n, -1)
	s.activity = grow(s.activity[:0], n, 0)
	s.heapPos = grow(s.heapPos[:0], n, 0)
	s.seen = grow(s.seen[:0], n, 0)
	s.mark = grow(s.mark[:0], 2*n, 0)
	s.heap = s.heap[:0]
	for v := 0; v < n; v++ {
		s.heap = append(s.heap, int32(v))
		s.heapPos[v] = int32(v)
	}
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.varInc = 1
	if s.restartBase == 0 {
		s.restartBase = defaultRestartBase
	}
	s.stats = Stats{}
}

// NumVars returns the current variable count.
func (s *Solver) NumVars() int { return s.nvars }

// Stats returns the work counters since the last Reset.
func (s *Solver) Stats() Stats { return s.stats }

// NewVar adds a fresh unassigned variable and returns its index.
// Encoders use it for auxiliary variables (e.g. cardinality counters)
// allocated after Reset. It costs amortized O(1).
func (s *Solver) NewVar() int {
	v := s.nvars
	s.nvars++
	s.watches = growWatches(s.watches, 2*s.nvars)
	s.assign = grow(s.assign, s.nvars, 0)
	s.level = grow(s.level, s.nvars, 0)
	s.reason = grow(s.reason, s.nvars, nullRef)
	s.phase = grow(s.phase, s.nvars, -1)
	s.activity = grow(s.activity, s.nvars, 0)
	s.heapPos = grow(s.heapPos, s.nvars, -1)
	s.seen = grow(s.seen, s.nvars, 0)
	s.mark = grow(s.mark, 2*s.nvars, 0)
	s.heapPush(int32(v))
	return v
}

// AddClause adds one clause, simplifying against the top-level
// assignment: duplicate literals collapse, tautologies and clauses
// already satisfied at level 0 are dropped, false literals are
// removed, units are enqueued and propagated immediately. Deriving
// the empty clause makes the instance trivially UNSAT. AddClause must
// be called at decision level 0 (i.e. before Solve or after it
// returns).
func (s *Solver) AddClause(lits ...Lit) {
	if !s.ok {
		return
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called above decision level 0")
	}
	s.addBuf = s.addBuf[:0]
	taut := false
	for _, l := range lits {
		if l < 0 || l.Var() >= s.nvars {
			panic(fmt.Sprintf("sat: literal %d out of range (%d vars)", l, s.nvars))
		}
		if s.mark[l] != 0 || s.litValue(l) == -1 {
			continue // duplicate, or false at level 0
		}
		if s.mark[l.Not()] != 0 || s.litValue(l) == 1 {
			taut = true // p ∨ ¬p, or already satisfied at level 0
			break
		}
		s.mark[l] = 1
		s.addBuf = append(s.addBuf, l)
	}
	for _, l := range s.addBuf {
		s.mark[l] = 0
	}
	if taut {
		return
	}
	switch len(s.addBuf) {
	case 0:
		s.ok = false
	case 1:
		s.enqueue(s.addBuf[0], nullRef)
		if s.propagate() != nullRef {
			s.ok = false
		}
	default:
		s.newClause(s.addBuf, false)
	}
}

// Solve runs the CDCL search. It returns (true, nil) on SAT with the
// model available through Value, (false, nil) on proved UNSAT,
// (false, ErrBudget) when the effort budget ran out, and
// (false, ctx.Err()) when the context was canceled. The search checks
// ctx every few hundred conflicts and every ~1k decisions.
func (s *Solver) Solve(ctx context.Context) (bool, error) {
	if !s.ok {
		return false, nil
	}
	if s.propagate() != nullRef {
		s.ok = false
		return false, nil
	}
	var restartNum int64
	limit := s.restartBase * luby(0)
	conflAtRestart := s.stats.Conflicts
	for {
		if confl := s.propagate(); confl != nullRef {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false, nil
			}
			bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(s.learntBuf) == 1 {
				s.enqueue(s.learntBuf[0], nullRef)
			} else {
				ref := s.newClause(s.learntBuf, true)
				s.stats.Learnt++
				s.enqueue(s.learntBuf[0], ref)
			}
			s.varInc *= varDecayInv
			if s.MaxConflicts > 0 && s.stats.Conflicts >= s.MaxConflicts {
				return false, ErrBudget
			}
			if s.stats.Conflicts&255 == 0 {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			if s.stats.Conflicts-conflAtRestart >= limit {
				s.stats.Restarts++
				restartNum++
				limit = s.restartBase * luby(restartNum)
				conflAtRestart = s.stats.Conflicts
				s.cancelUntil(0)
			}
		} else {
			if !s.decide() {
				s.saveModel()
				s.cancelUntil(0)
				return true, nil
			}
			s.stats.Decisions++
			if s.MaxDecisions > 0 && s.stats.Decisions >= s.MaxDecisions {
				return false, ErrBudget
			}
			if s.stats.Decisions&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
		}
	}
}

// Value reports the value variable v took in the most recent
// satisfying assignment. Valid only after Solve returned true.
func (s *Solver) Value(v int) bool { return s.model[v] == 1 }

// litValue returns the literal's current value: +1 true, -1 false,
// 0 unassigned.
//
//dms:hotpath
func (s *Solver) litValue(l Lit) int8 {
	v := s.assign[l>>1]
	if l&1 == 1 {
		return -v
	}
	return v
}

// enqueue records an assignment making l true, with its implying
// clause. The caller guarantees l is currently unassigned.
//
//dms:hotpath
func (s *Solver) enqueue(l Lit, from clauseRef) {
	v := l.Var()
	if l&1 == 1 {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate is the unit-propagation inner loop: it drains the trail
// queue through the two-watched-literal scheme until fixpoint or
// conflict, returning the conflicting clause or nullRef. This is
// where CDCL spends nearly all of its time, so the loop compacts each
// watch list in place and allocates only when a watch list must grow
// past its high-water capacity.
//
//dms:hotpath
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		nl := p.Not() // literal that just became false
		ws := s.watches[nl]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == 1 {
				ws[j] = w
				j++
				continue
			}
			h := s.hdrs[w.ref]
			c := s.lits[h.off : h.off+h.n]
			// Normalise so the falsified watch sits at c[1].
			if c[0] == nl {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if first != w.blocker && s.litValue(first) == 1 {
				ws[j] = watcher{ref: w.ref, blocker: first}
				j++
				continue
			}
			// Look for a non-false literal to watch instead.
			found := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != -1 {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], watcher{ref: w.ref, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting under the current trail.
			ws[j] = watcher{ref: w.ref, blocker: first}
			j++
			if s.litValue(first) == -1 {
				// Conflict: keep the unvisited tail of the watch list,
				// then hand the clause to conflict analysis.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[nl] = ws[:j]
				s.qhead = len(s.trail)
				return w.ref
			}
			s.enqueue(first, w.ref)
		}
		s.watches[nl] = ws[:j]
	}
	return nullRef
}

// analyze derives the first-UIP learnt clause from a conflict. The
// clause is left in s.learntBuf with the asserting literal at index 0
// and a literal of the backtrack level at index 1; the return value is
// the backtrack level.
func (s *Solver) analyze(confl clauseRef) int {
	s.learntBuf = s.learntBuf[:0]
	s.learntBuf = append(s.learntBuf, 0) // slot for the asserting literal
	pathC := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	curLevel := s.decisionLevel()
	for {
		h := s.hdrs[confl]
		c := s.lits[h.off : h.off+h.n]
		start := 0
		if p != -1 {
			start = 1 // c[0] is the literal this clause asserted
		}
		for _, q := range c[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if int(s.level[v]) >= curLevel {
					pathC++
				} else {
					s.learntBuf = append(s.learntBuf, q)
				}
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	s.learntBuf[0] = p.Not()
	for _, q := range s.learntBuf[1:] {
		s.seen[q.Var()] = 0
	}
	// Backtrack to the second-highest decision level in the clause and
	// keep one of its literals at index 1 as the other watch.
	btLevel := 0
	if len(s.learntBuf) > 1 {
		maxI := 1
		for i := 2; i < len(s.learntBuf); i++ {
			if s.level[s.learntBuf[i].Var()] > s.level[s.learntBuf[maxI].Var()] {
				maxI = i
			}
		}
		s.learntBuf[1], s.learntBuf[maxI] = s.learntBuf[maxI], s.learntBuf[1]
		btLevel = int(s.level[s.learntBuf[1].Var()])
	}
	return btLevel
}

// cancelUntil unwinds the trail to the given decision level, saving
// each variable's polarity for phase-saved redecisions.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	back := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= back; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = 0
		s.reason[v] = nullRef
		s.heapPush(int32(v))
	}
	s.trail = s.trail[:back]
	s.trailLim = s.trailLim[:level]
	s.qhead = back
}

// decide opens a new decision level on the most active unassigned
// variable, restoring its saved phase. It returns false when every
// variable is assigned (the instance is satisfied).
func (s *Solver) decide() bool {
	for len(s.heap) > 0 {
		v := s.heap[0]
		s.heapPop()
		if s.assign[v] != 0 {
			continue // stale entry: assigned since it was pushed
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		l := Pos(int(v))
		if s.phase[v] < 0 {
			l = Neg(int(v))
		}
		s.enqueue(l, nullRef)
		return true
	}
	return false
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) saveModel() {
	s.model = grow(s.model, s.nvars, 0)
	copy(s.model, s.assign[:s.nvars])
}

// newClause appends the literals to the arena and watches the first
// two. Callers guarantee len(lits) >= 2.
func (s *Solver) newClause(lits []Lit, learnt bool) clauseRef {
	ref := clauseRef(len(s.hdrs))
	off := int32(len(s.lits))
	s.lits = append(s.lits, lits...)
	s.hdrs = append(s.hdrs, clauseHdr{off: off, n: int32(len(lits)), learnt: learnt})
	s.watches[lits[0]] = append(s.watches[lits[0]], watcher{ref: ref, blocker: lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watcher{ref: ref, blocker: lits[0]})
	return ref
}

// bumpVar raises a variable's activity, rescaling all activities
// before overflow (a uniform rescale preserves the heap order).
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > activityRescale {
		for i := 0; i < s.nvars; i++ {
			s.activity[i] *= 1 / activityRescale
		}
		s.varInc *= 1 / activityRescale
	}
	if s.heapPos[v] >= 0 {
		s.siftUp(int(s.heapPos[v]))
	}
}

// heapPush inserts the variable unless it is already present.
func (s *Solver) heapPush(v int32) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// heapPop removes and returns the maximum-activity variable.
func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.siftDown(0)
	}
	return v
}

// siftUp and siftDown move a hole rather than swapping: each level
// shifts one parent (child) into the hole with one heapPos write, and
// the sifted variable lands once at the end. The comparisons are
// those of a swapping heap, so the heap order is the same.
func (s *Solver) siftUp(i int) {
	h := s.heap
	v := h[i]
	a := s.activity[v]
	for i > 0 {
		p := (i - 1) / 2
		if a <= s.activity[h[p]] {
			break
		}
		h[i] = h[p]
		s.heapPos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) siftDown(i int) {
	h := s.heap
	n := len(h)
	v := h[i]
	a := s.activity[v]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.activity[h[c+1]] > s.activity[h[c]] {
			c++
		}
		if a >= s.activity[h[c]] {
			break
		}
		h[i] = h[c]
		s.heapPos[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	s.heapPos[v] = int32(i)
}

// luby returns the i-th element (0-based) of the Luby restart
// sequence 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return int64(1) << seq
}

// grow extends s to n entries, preserving its prefix and setting every
// newly exposed entry to fill; grow(s[:0], n, fill) refills all n.
// Capacity grows geometrically, to max(n, 2·cap), so extending a slice
// one entry at a time (NewVar) costs amortized O(1).
func grow[T any](s []T, n int, fill T) []T {
	old := len(s)
	if cap(s) < n {
		ns := make([]T, n, max(n, 2*cap(s)))
		copy(ns, s)
		s = ns
	} else {
		s = s[:n]
	}
	for i := old; i < n; i++ {
		s[i] = fill
	}
	return s
}

// growWatches is grow for the watch lists: newly exposed lists are
// truncated to empty rather than dropped, so every list keeps the
// backing array an earlier instance grew for it, also across a
// reallocation of the outer slice.
func growWatches(w [][]watcher, n int) [][]watcher {
	old := len(w)
	if cap(w) < n {
		nw := make([][]watcher, n, max(n, 2*cap(w)))
		copy(nw, w[:cap(w)])
		w = nw
	} else {
		w = w[:n]
	}
	for i := old; i < n; i++ {
		w[i] = w[i][:0]
	}
	return w
}
