package repro_test

import (
	"context"
	"runtime"
	"testing"

	api "repro/api/v1"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/exact"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/sat"
	"repro/internal/server"
)

// scheduleAllocBudget is the checked-in allocation baseline for one
// full DMS compile (graph build + copy insertion + core.Schedule) on
// the 8-cluster benchmark configuration. PR 6's raw-speed pass
// measured ~207 allocs/op (BENCH_PR6.json); building the graph into
// presized arrays brought that to 181. The budget leaves ~50%
// headroom for corpus drift while still catching any regression that
// reintroduces per-candidate-II cloning, per-call scratch (the
// pre-PR 6 code sat at ~1631) or slice growth in ddg.FromLoop.
const scheduleAllocBudget = 272

// TestScheduleAllocBudget fails when core.Schedule's allocation rate
// regresses above the checked-in baseline — the guard behind the CI
// benchmark smoke job.
func TestScheduleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Clustered(8)
	i := 0
	avg := testing.AllocsPerRun(64, func() {
		g := ddg.FromLoop(sample[i%len(sample)], lat)
		i++
		ddg.InsertCopies(g, ddg.MaxUses)
		if _, _, err := core.Schedule(g, m, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.Schedule pipeline: %.1f allocs/op (budget %d)", avg, scheduleAllocBudget)
	if avg > scheduleAllocBudget {
		t.Fatalf("core.Schedule pipeline allocates %.1f/op, above the checked-in budget of %d — "+
			"the scheduling inner loop has regressed (see BENCH_PR6.json)", avg, scheduleAllocBudget)
	}
}

// servePathAllocBudget and servePathBytesBudget are the checked-in
// allocation baselines for the per-unit serving work around a compile:
// parse the loop text, key the job, and render the result's wire
// record. Measured at 128 allocs and ~13.5 KiB per op on the pinned
// corpus; the budgets leave ~50% headroom. The code they replaced (a
// 64 KiB scanner buffer per parse, fmt-rendered keys and schedules)
// sat at 155 allocs and ~73 KiB: the byte budget is the one a
// per-parse buffer trips.
const (
	servePathAllocBudget = 192
	servePathBytesBudget = 21 << 10
)

// TestServePathAllocBudget fails when the serving path's allocation
// rate regresses above the checked-in baselines. The compiles happen
// before measuring: only the work every unit pays outside the
// scheduler is counted.
func TestServePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	m := machine.Clustered(4)
	texts := make([]string, len(sample))
	jobs := make([]driver.Job, len(sample))
	for i, l := range sample {
		texts[i] = loop.Format(l)
		jobs[i] = driver.Job{Loop: l, Machine: m, Scheduler: "dms"}
	}
	results := driver.CompileAll(context.Background(), jobs, driver.BatchOptions{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
	}
	i := 0
	serve := func() {
		k := i % len(sample)
		i++
		l, err := loop.ParseString(texts[k])
		if err != nil {
			t.Fatal(err)
		}
		job := jobs[k]
		job.Loop = l
		_ = server.JobKey(job)
		_ = server.Record(results[k])
	}
	const runs = 64
	avg := testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("serve path (parse + key + record): %.1f allocs/op, %d B/op (budgets %d, %d)",
		avg, bytesPerOp, servePathAllocBudget, servePathBytesBudget)
	if avg > servePathAllocBudget {
		t.Fatalf("serve path allocates %.1f/op, above the checked-in budget of %d — "+
			"loop.Parse, JobKey or server.Record has regressed", avg, servePathAllocBudget)
	}
	if bytesPerOp > servePathBytesBudget {
		t.Fatalf("serve path allocates %d B/op, above the checked-in budget of %d — "+
			"loop.Parse, JobKey or server.Record has regressed", bytesPerOp, servePathBytesBudget)
	}
}

// streamLineAllocBudget and streamLineBytesBudget are the checked-in
// allocation baselines for one NDJSON result line's round trip through
// the api/v1 codec: AppendResultLine into a reused buffer, then
// DecodeStreamLine, on the pinned corpus's dms records (537-byte
// lines on average). Measured at 14 allocs and 798 B per op; the
// budgets leave ~50% headroom. encoding/json (json.Marshal, then the
// two json.Unmarshal passes the decoder used to make) sat at 51 allocs
// and ~2.5 KiB.
const (
	streamLineAllocBudget = 21
	streamLineBytesBudget = 1200
)

// TestStreamLineAllocBudget fails when the result-line codec's
// allocation rate regresses above the checked-in baselines.
func TestStreamLineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	jobs := make([]driver.Job, len(sample))
	for i, l := range sample {
		jobs[i] = driver.Job{Loop: l, Machine: machine.Clustered(4), Scheduler: "dms"}
	}
	recs := make([]api.JobResult, len(jobs))
	for i, r := range driver.CompileAll(context.Background(), jobs, driver.BatchOptions{}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
		recs[i] = server.Record(r)
		recs[i].Index = i
	}
	var buf []byte
	i := 0
	roundTrip := func() {
		rec := &recs[i%len(recs)]
		i++
		var err error
		if buf, err = api.AppendResultLine(buf[:0], rec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := api.DecodeStreamLine(buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // size the reused buffer
	const runs = 64
	avg := testing.AllocsPerRun(runs, roundTrip)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("stream line (encode + decode): %.1f allocs/op, %d B/op (budgets %d, %d)",
		avg, bytesPerOp, streamLineAllocBudget, streamLineBytesBudget)
	if avg > streamLineAllocBudget {
		t.Fatalf("stream line codec allocates %.1f/op, above the checked-in budget of %d — "+
			"AppendResultLine or DecodeStreamLine has regressed", avg, streamLineAllocBudget)
	}
	if bytesPerOp > streamLineBytesBudget {
		t.Fatalf("stream line codec allocates %d B/op, above the checked-in budget of %d — "+
			"AppendResultLine or DecodeStreamLine has regressed", bytesPerOp, streamLineBytesBudget)
	}
}

// satSolveAllocBudget bounds the steady-state allocation rate of one
// full Reset + encode + Solve cycle on a reused sat.Solver. The solver
// keeps its trail, watcher lists and clause arena across Reset, and the
// hot propagation loop (//dms:hotpath in internal/sat) must not
// allocate at all, so after the warm-up solve the whole cycle settles
// at zero; the budget leaves slack for incidental runtime noise only.
// internal/exact runs in this steady state: it reuses one solver across
// the candidate IIs and horizons of a Schedule call, and takes it from
// a pool that keeps it across calls. TestExactScheduleAllocBudget
// guards the whole call.
const satSolveAllocBudget = 8

// TestSATSolveAllocBudget fails when the SAT inner loop starts
// allocating — the exact back-end issues thousands of conflicts per
// candidate II, so a single alloc on the propagation path multiplies
// into GC pressure across the whole portfolio race.
func TestSATSolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	// Pigeonhole PHP(6,5): small, UNSAT, and conflict-dense — every
	// solve exercises propagation, 1UIP learning and backtracking.
	const pigeons, holes = 6, 5
	s := sat.New()
	lits := make([]sat.Lit, 0, holes)
	ctx := context.Background()
	avg := testing.AllocsPerRun(32, func() {
		s.Reset(pigeons * holes)
		v := func(p, h int) int { return p*holes + h }
		for p := 0; p < pigeons; p++ {
			lits = lits[:0]
			for h := 0; h < holes; h++ {
				lits = append(lits, sat.Pos(v(p, h)))
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(sat.Neg(v(p1, h)), sat.Neg(v(p2, h)))
				}
			}
		}
		ok, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("pigeonhole PHP(6,5) reported satisfiable")
		}
	})
	t.Logf("sat solve cycle: %.1f allocs/op (budget %d)", avg, satSolveAllocBudget)
	if avg > satSolveAllocBudget {
		t.Fatalf("sat Reset+encode+Solve allocates %.1f/op, above the checked-in budget of %d — "+
			"the propagation hot path has regressed", avg, satSolveAllocBudget)
	}
}

// exactScheduleAllocBudget is the checked-in allocation baseline for
// one exact.ScheduleCtx call on the pinned corpus, after a warm-up:
// measured at 28 allocs per call, the budget leaves ~50% headroom. A
// solver built per call and grown one variable at a time by exact-size
// reallocation sat at ~1460.
const exactScheduleAllocBudget = 42

// TestExactScheduleAllocBudget fails when the exact scheduler's
// allocation rate regresses above the checked-in baseline: encoding an
// instance must cost amortized O(1) allocations per SAT variable, and
// a Schedule call must reuse a pooled solver rather than build one.
func TestExactScheduleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	type job struct {
		g *ddg.Graph
		m *machine.Machine
	}
	lat := machine.DefaultLatencies()
	var jobs []job
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 20) {
		g := ddg.FromLoop(l, lat)
		for _, c := range []int{1, 2, 4} {
			jobs = append(jobs, job{g: g, m: machine.Unclustered(c)})
		}
	}
	ctx := context.Background()
	i := 0
	run := func() {
		j := jobs[i%len(jobs)]
		i++
		if _, _, err := exact.ScheduleCtx(ctx, j.g, j.m, exact.Options{}); err != nil {
			t.Fatalf("%s on %s: %v", j.g.Name(), j.m.Name, err)
		}
	}
	// The pool keeps a solver per P and AllocsPerRun measures at
	// GOMAXPROCS 1: warm up on that one P too, or the measured calls
	// start from a fresh solver whose watch lists all still grow.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range jobs {
		run()
	}
	avg := testing.AllocsPerRun(len(jobs), run)
	t.Logf("exact.ScheduleCtx: %.1f allocs/op (budget %d)", avg, exactScheduleAllocBudget)
	if avg > exactScheduleAllocBudget {
		t.Fatalf("exact.ScheduleCtx allocates %.1f/op, above the checked-in budget of %d — "+
			"the exact encoder or the SAT solver's growth has regressed", avg, exactScheduleAllocBudget)
	}
}

// Search-effort budgets for the exact scheduler: total SAT conflicts
// and propagations over the first 50 pinned-corpus loops on
// Unclustered(1/2/4). Both counts are deterministic, so the gate
// cannot flake. Measured at 744 conflicts and 83580 propagations with
// a Luby restart unit of 16 and a first horizon of C + 1 + II; the
// budgets leave ~50% headroom. A restart unit of 100 with a first
// horizon of C + 1 + 2·II sat at 2688 conflicts and 301101
// propagations.
const (
	exactConflictBudget    = 1120
	exactPropagationBudget = 126000
)

// TestExactSearchEffortBudget fails when the exact scheduler's search
// policy regresses: more conflicts or propagations to reach the same
// optimal schedules.
func TestExactSearchEffortBudget(t *testing.T) {
	lat := machine.DefaultLatencies()
	ctx := context.Background()
	var conflicts, props int64
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 50) {
		g := ddg.FromLoop(l, lat)
		for _, c := range []int{1, 2, 4} {
			m := machine.Unclustered(c)
			_, st, err := exact.ScheduleCtx(ctx, g, m, exact.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			conflicts += st.Conflicts
			props += st.Propagations
		}
	}
	t.Logf("exact search effort: %d conflicts (budget %d), %d propagations (budget %d)",
		conflicts, exactConflictBudget, props, exactPropagationBudget)
	if conflicts > exactConflictBudget || props > exactPropagationBudget {
		t.Fatalf("exact search needs %d conflicts and %d propagations, above the checked-in budgets of %d and %d — "+
			"the restart policy, the first horizon or the encoding has regressed",
			conflicts, props, exactConflictBudget, exactPropagationBudget)
	}
}
