package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
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
// full DMS compile (graph build + copy insertion + core.ScheduleCtx) on
// the 8-cluster benchmark configuration. PR 6's raw-speed pass
// measured ~207 allocs/op (BENCH_PR6.json); building the graph into
// presized arrays brought that to 181. The budget leaves ~50%
// headroom for corpus drift while still catching any regression that
// reintroduces per-candidate-II cloning, per-call scratch (the
// pre-PR 6 code sat at ~1631) or slice growth in ddg.FromLoop.
const scheduleAllocBudget = 272

// TestScheduleAllocBudget fails when core.ScheduleCtx's allocation rate
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
		if _, _, err := core.ScheduleCtx(context.Background(), g, m, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("core.ScheduleCtx pipeline: %.1f allocs/op (budget %d)", avg, scheduleAllocBudget)
	if avg > scheduleAllocBudget {
		t.Fatalf("core.ScheduleCtx pipeline allocates %.1f/op, above the checked-in budget of %d — "+
			"the scheduling inner loop has regressed (see BENCH_PR6.json)", avg, scheduleAllocBudget)
	}
}

// servePathAllocBudget and servePathBytesBudget are the checked-in
// allocation baselines for the per-unit serving work around a compile:
// parse the loop text, key the job, and render the result's wire
// record. Measured at 54 allocs and ~5.2 KiB per op on the pinned
// corpus; the budgets leave ~50% headroom. The bufio.Scanner parser
// (a 4 KiB buffer, a string per line and a slice per split) and a
// Format with a per-call operand table sat at 127 allocs and
// ~13.4 KiB; before them, a 64 KiB scanner buffer per parse and
// fmt-rendered keys and schedules sat at 155 allocs and ~73 KiB.
const (
	servePathAllocBudget = 81
	servePathBytesBudget = 8 << 10
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
			"loop.ParseString, JobKey or server.Record has regressed", avg, servePathAllocBudget)
	}
	if bytesPerOp > servePathBytesBudget {
		t.Fatalf("serve path allocates %d B/op, above the checked-in budget of %d — "+
			"loop.ParseString, JobKey or server.Record has regressed", bytesPerOp, servePathBytesBudget)
	}
}

// The textual loop format's allocation baselines, per loop of the
// pinned corpus (10 ops on average):
//
//   - parseAllocBudget: loop.ParseString, measured at 5: the Loop, its
//     Ops and Deps, the name table and Validate's one (a loop without
//     dependences skips Deps). The parser's scratch lives on the stack
//     up to 32 ops; the budget leaves ~50% headroom. The bufio.Scanner
//     parser it replaced sat at 76.
//   - formatAllocBudget and validateAllocBudget: exactly the one
//     buffer each. loop.Format sat at 17, with a per-call operand
//     table; Validate at ~14, with a name map and a slice per op.
const (
	parseAllocBudget    = 7
	formatAllocBudget   = 1
	validateAllocBudget = 1
)

// loopTextSteps are the measured operations on one loop of the pinned
// corpus, in turn: parse its canonical text, format the parsed loop,
// validate it.
func loopTextSteps(tb testing.TB, n int) []struct {
	name string
	run  func()
} {
	tb.Helper()
	sample := perfect.CorpusN(perfect.DefaultSeed, n)
	texts := make([]string, len(sample))
	parsed := make([]*loop.Loop, len(sample))
	for i, l := range sample {
		texts[i] = loop.Format(l)
		var err error
		if parsed[i], err = loop.ParseString(texts[i]); err != nil {
			tb.Fatal(err)
		}
	}
	var i int
	return []struct {
		name string
		run  func()
	}{
		{"parse", func() {
			if _, err := loop.ParseString(texts[i%len(texts)]); err != nil {
				tb.Fatal(err)
			}
			i++
		}},
		{"format", func() {
			_ = loop.Format(parsed[i%len(parsed)])
			i++
		}},
		{"validate", func() {
			if err := parsed[i%len(parsed)].Validate(); err != nil {
				tb.Fatal(err)
			}
			i++
		}},
	}
}

// TestLoopTextAllocBudget fails when reading, writing or validating
// loop text regresses above its checked-in allocation baseline.
func TestLoopTextAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	budgets := map[string]float64{
		"parse":    parseAllocBudget,
		"format":   formatAllocBudget,
		"validate": validateAllocBudget,
	}
	for _, step := range loopTextSteps(t, 32) {
		avg := testing.AllocsPerRun(64, step.run)
		t.Logf("%s: %.2f allocs/loop (budget %v)", step.name, avg, budgets[step.name])
		if avg > budgets[step.name] {
			t.Errorf("%s allocates %.2f/loop, above the checked-in budget of %v — "+
				"the loop text path has regressed", step.name, avg, budgets[step.name])
		}
	}
}

// BenchmarkLoopText reports the cost per loop of each step
// TestLoopTextAllocBudget pins, over the first 256 corpus loops.
func BenchmarkLoopText(b *testing.B) {
	for _, step := range loopTextSteps(b, 256) {
		b.Run(step.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				step.run()
			}
		})
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

// The worker-pull wire's per-unit allocation baselines, measured on a
// lease of the pinned corpus's first 32 loops, dms on the 4-cluster
// machine, and the results body those units post back:
//
//   - workResultsDecodeAllocBudget: DecodeWorkResults, the
//     coordinator's strict decode of the results body;
//   - leaseEncodeAllocBudget: AppendLease into a reused buffer, the
//     coordinator's lease response;
//   - leaseJobsAllocBudget: LeaseJobs, the worker's parse, machine
//     build and keying of a decoded lease.
//
// Measured at 14.3, 0 and 9.1 allocs per unit; the budgets leave
// ~50% headroom (one alloc for the encoder). The code they replaced (a
// json.Decoder with DisallowUnknownFields; an indented json.Encoder; a
// machine.ReadConfig and a loop.Format per unit) sat at 23.9, 0.7 and
// 119.7, and BenchmarkWorkerWire's µs per unit fell from 16.8, 8.9 and
// 23.8 to 4.0, 1.8 and 11.8 on a 2-vCPU Xeon. LeaseJobs then sat at
// 67.8 allocs and ~9.1 µs per unit until loop.ParseString became one
// pass over the text (~4 µs per unit).
const (
	workResultsDecodeAllocBudget = 21
	leaseEncodeAllocBudget       = 1
	leaseJobsAllocBudget         = 14
)

// workerWireFixture builds the lease and results body the worker-pull
// budget and benchmark measure.
func workerWireFixture(tb testing.TB) (lease api.Lease, body []byte) {
	tb.Helper()
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	m := machine.Clustered(4)
	config, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]driver.Job, len(sample))
	lease = api.Lease{ID: "lease", TTLMS: 15000, Remaining: 64, Units: make([]api.WorkUnit, len(sample))}
	for i, l := range sample {
		jobs[i] = driver.Job{Loop: l, Machine: m, Scheduler: "dms"}
		lease.Units[i] = api.WorkUnit{
			ID: fmt.Sprintf("job/%d", i), Hash: server.JobKey(jobs[i]), Loop: loop.Format(l),
			Machine: api.MachineSpec{Config: config}, Scheduler: "dms", TimeoutMS: 30000, NoCache: true,
		}
	}
	post := api.WorkResultsRequest{Protocol: api.Version}
	for i, r := range driver.CompileAll(context.Background(), jobs, driver.BatchOptions{}) {
		if r.Err != nil {
			tb.Fatalf("%s: %v", r.Job, r.Err)
		}
		post.Results = append(post.Results, api.UnitResult{Unit: lease.Units[i].ID, Result: server.Record(r)})
	}
	if body, err = api.AppendWorkResults(nil, &post); err != nil {
		tb.Fatal(err)
	}
	return lease, body
}

// workerWireSteps are the three measured steps over the fixture, each
// handling every unit of it once.
func workerWireSteps(tb testing.TB, lease api.Lease, body []byte) []struct {
	name string
	run  func()
} {
	var buf []byte
	return []struct {
		name string
		run  func()
	}{
		{"results-decode", func() {
			if _, err := api.DecodeWorkResults(body); err != nil {
				tb.Fatal(err)
			}
		}},
		{"lease-encode", func() {
			var err error
			if buf, err = api.AppendLease(buf[:0], &lease); err != nil {
				tb.Fatal(err)
			}
		}},
		{"lease-jobs", func() {
			for _, lj := range server.LeaseJobs(lease.Units) {
				if lj.Err != nil {
					tb.Fatal(lj.Err)
				}
			}
		}},
	}
}

// TestWorkerWireAllocBudget fails when a step of the worker-pull wire
// regresses above its checked-in per-unit allocation baseline.
func TestWorkerWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	lease, body := workerWireFixture(t)
	budgets := map[string]float64{
		"results-decode": workResultsDecodeAllocBudget,
		"lease-encode":   leaseEncodeAllocBudget,
		"lease-jobs":     leaseJobsAllocBudget,
	}
	for _, step := range workerWireSteps(t, lease, body) {
		step.run() // size reused buffers
		perUnit := testing.AllocsPerRun(16, step.run) / float64(len(lease.Units))
		t.Logf("%s: %.2f allocs/unit (budget %v)", step.name, perUnit, budgets[step.name])
		if perUnit > budgets[step.name] {
			t.Errorf("%s allocates %.2f/unit, above the checked-in budget of %v — "+
				"the worker-pull wire has regressed", step.name, perUnit, budgets[step.name])
		}
	}
}

// BenchmarkWorkerWire reports the microseconds per unit of each step
// TestWorkerWireAllocBudget pins.
func BenchmarkWorkerWire(b *testing.B) {
	lease, body := workerWireFixture(b)
	for _, step := range workerWireSteps(b, lease, body) {
		b.Run(step.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				step.run()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(lease.Units)), "us/unit")
		})
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
