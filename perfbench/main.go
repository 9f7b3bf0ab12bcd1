// Command perfbench is the repository's benchmark of the compile
// service, end to end and layer by layer. It drives one of four
// seeded workloads from a single process, through the public surfaces
// only: the pkg/dmsclient SDK against server.Open(...).Handler() on a
// loopback listener, with in-process internal/worker pullers for the
// coordinator topology. Loops come from perfect.CorpusN(seed, n) and
// reach the service only as loop text on the wire.
//
//	bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 10 --trace 0
//
// Every result is checked against a direct driver.CompileAll of the
// same job. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) named in
// BENCHMARK.json. perfbench/README.md documents every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/perfect"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dataRoot string
}

// setups is how many times a run opens its topology; setup_s is the
// median.
const setups = 25

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64 // end-to-end or per-layer, by --trace
	info              map[string]float64 // reported on the console only
	notes             []string
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (batch-cold, serve-warm, drain-durable, exact-certify)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.dataRoot, "data", ".bench_build/data", "directory for durable state and replays")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	defs, err := readMetricDefs("BENCHMARK.json", o.trace == 1)
	if err != nil {
		return err
	}
	runDir := filepath.Join(o.dataRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	h := describeHost(runDir)
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)
	var rep *report
	if w.serve != nil {
		rep, err = runServe(ctx, &o, w.serve, stdout)
	} else {
		rep, err = runClosedWorkload(ctx, &o, w.closed, runDir, stdout)
	}
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, k := range slices.Sorted(maps.Keys(rep.info)) {
		fmt.Fprintf(stdout, "%-32s %14.6g\n", k, rep.info[k])
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setUp opens the topology setups times, closing all but the last,
// and returns the median set-up time with the open topology. prep, when
// set, readies set-up k before its timing starts.
func setUp(prep func(k int) error, open func(k int) (*topology, error)) (float64, *topology, error) {
	// Collect the garbage of input generation first, so no set-up
	// shares the processors with its collection.
	runtime.GC()
	var times []float64
	var t *topology
	for k := range setups {
		if t != nil {
			t.close()
		}
		if prep != nil {
			if err := prep(k); err != nil {
				return 0, nil, err
			}
		}
		start := time.Now()
		var err error
		if t, err = open(k); err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), t, nil
}

func runClosedWorkload(ctx context.Context, o *options, spec *closedSpec, runDir string, stdout io.Writer) (*report, error) {
	in := generate(o.seed, spec.pool, spec.pinned)
	fmt.Fprintf(stdout, "inputs %d loops sha256=%s\n", len(in.texts), in.digest)
	cfgs, _ := configs(spec.groups)
	topo := func(k int, tr *tracer) topoOptions {
		t := topoOptions{workers: spec.workers, tr: tr}
		if spec.workers > 0 {
			t.dataDir = filepath.Join(runDir, fmt.Sprintf("setup-%d", k))
		}
		return t
	}
	// A durable set-up recovers the same recorded history every time:
	// each copies it to a fresh data directory before its timing starts.
	var prep func(k int) error
	if spec.workers > 0 {
		history := filepath.Join(runDir, "history")
		if err := recordHistory(ctx, topoOptions{workers: spec.workers, dataDir: history}, spec, in); err != nil {
			return nil, err
		}
		prep = func(k int) error {
			if k > 0 { // set-up k−1 is closed by now
				if err := os.RemoveAll(topo(k-1, nil).dataDir); err != nil {
					return err
				}
			}
			return copyDir(history, topo(k, nil).dataDir)
		}
	}
	// Every set-up ends with one batch of the workload's shape over the
	// pinned corpus's first loops, the same in every run: set-up is the
	// time to a first full result, and compile work, not loopback
	// wake-ups, dominates it.
	warmUp := spec.requests(generate(perfect.DefaultSeed, spec.loopsPerBatch, false).texts)
	open := func(k int, tr *tracer) (*topology, error) {
		t, err := openTopology(ctx, topo(k, tr))
		if err == nil {
			if err = runWhole(ctx, t, warmUp); err != nil {
				t.close()
			}
		}
		return t, err
	}
	setupS, t, err := setUp(prep, func(k int) (*topology, error) { return open(k, nil) })
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	seen := newResultHashes(len(in.texts), len(cfgs))
	// A pinned pool is small, cycled and heavy-tailed in cost: its
	// chunks hold whole passes over the pool, so each holds the same loops.
	var passB, passU int
	if spec.pinned {
		passB, passU = spec.pool/spec.loopsPerBatch, spec.pool*len(cfgs)
	}
	cursor := 0
	rep := &report{info: map[string]float64{}}

	if o.trace == 0 {
		heap := startHeapSampler(5 * time.Millisecond)
		ph, err := runClosed(ctx, t, spec, in, &cursor, dur, nil, seen)
		peak := heap.peakMB()
		t.close()
		if err != nil {
			return nil, err
		}
		if err := finishClosed(ctx, rep, in, cfgs, seen, ph); err != nil {
			return nil, err
		}
		rep.metrics = map[string]float64{
			"setup_s":        setupS,
			"units_per_s":    ph.throughput(),
			"batch_p50_ms":   tailQuantile(ph.batchMS(), 0.5, passB),
			"batch_p90_ms":   tailQuantile(ph.batchMS(), 0.9, passB),
			"latency_p50_ms": tailQuantile(ph.latencyMS, 0.5, passU),
			"latency_p90_ms": tailQuantile(ph.latencyMS, 0.9, passU),
			"ii_over_mii":    ratio(float64(ph.tally.iiSum), float64(ph.tally.miiSum)),
			"peak_heap_mb":   peak,
		}
		rep.info["batches"] = float64(len(ph.batches))
		rep.info["latency_p99_ms"] = tailQuantile(ph.latencyMS, 0.99, passU)
		rep.info["proved_share"] = ratio(float64(ph.tally.proved), float64(ph.tally.exactUnits))
		return rep, nil
	}

	base, err := runClosed(ctx, t, spec, in, &cursor, dur/2, nil, seen)
	t.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if prep != nil {
		if err := prep(setups); err != nil {
			return nil, err
		}
	}
	tt, err := open(setups, tr)
	if err != nil {
		return nil, err
	}
	before, err := tt.cli.Metrics(ctx)
	if err != nil {
		tt.close()
		return nil, err
	}
	// The traced half replays the untraced half's batches from the
	// start, so the overhead comparison runs the same inputs.
	cursor = 0
	tr.on.Store(true)
	start := time.Now()
	traced, err := runClosed(ctx, tt, spec, in, &cursor, dur/2, tr, seen)
	wall := time.Since(start)
	tr.on.Store(false)
	if err != nil {
		tt.close()
		return nil, err
	}
	after, err := tt.cli.Metrics(ctx)
	tt.close()
	if err != nil {
		return nil, err
	}
	merged := *base
	merged.tally = sumTally(base.tally, traced.tally)
	if err := finishClosed(ctx, rep, in, cfgs, seen, &merged); err != nil {
		return nil, err
	}
	rep.metrics, rep.notes, err = layerMetrics(ctx, &traceRun{
		spans: tr.snapshot(), traced: traced, base: base, wall: wall,
		before: before, after: after, workers: spec.workers, cfgs: cfgs, in: in, scratch: runDir,
	})
	return rep, err
}

// sumTally adds b's counts to a.
func sumTally(a, b tally) tally {
	a.units += b.units
	a.failed += b.failed
	a.mismatched += b.mismatched
	a.iiSum += b.iiSum
	a.miiSum += b.miiSum
	a.iisTried += b.iisTried
	a.placements += b.placements
	a.evictions += b.evictions
	a.dmsUnits += b.dmsUnits
	a.chainsBuilt += b.chainsBuilt
	a.movesIns += b.movesIns
	a.exactUnits += b.exactUnits
	a.proved += b.proved
	a.conflicts += b.conflicts
	a.decisions += b.decisions
	a.props += b.props
	a.solv += b.solv
	return a
}

// finishClosed checks every distinct result the run hashed against a
// direct driver.CompileAll of the same job and fills the counts.
func finishClosed(ctx context.Context, rep *report, in inputs, cfgs []config, seen *resultHashes, ph *phase) error {
	keys := seen.keys()
	ref, err := reference(ctx, in.texts, cfgs, keys)
	if err != nil {
		return err
	}
	mismatched := ph.tally.mismatched
	for _, k := range keys {
		h, err := recordHash(ref[k])
		if err != nil {
			return err
		}
		if h != seen.get(k) {
			mismatched++
		}
	}
	rep.attempted = ph.tally.units
	rep.failed = ph.tally.failed + mismatched
	rep.correct = rep.failed == 0
	rep.info["failed_share"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.info["reference_jobs"] = float64(len(keys))
	return nil
}

// runServe measures serve-warm: Poisson arrivals at the fixed rate
// against a server whose cache set-up warmed with the working set.
func runServe(ctx context.Context, o *options, spec *serveSpec, stdout io.Writer) (*report, error) {
	in := generate(o.seed, spec.workingSet, false)
	fmt.Fprintf(stdout, "inputs %d loops sha256=%s\n", len(in.texts), in.digest)
	setupS, t, err := setUp(nil, func(int) (*topology, error) {
		t, err := openTopology(ctx, topoOptions{})
		if err == nil {
			if err = warm(ctx, t, spec, in); err != nil {
				t.close()
			}
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	cfgs, _ := configs([]group{spec.group})
	ref, err := buildServeRef(ctx, in, cfgs)
	if err != nil {
		t.close()
		return nil, err
	}
	// Each measured phase draws the same arrivals and picks.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(o.seed)) }
	dur := time.Duration(o.seconds) * time.Second
	rep := &report{info: map[string]float64{}}
	var all tally
	count := func(ph *phase) { all = sumTally(all, ph.tally) }
	finish := func() {
		rep.attempted, rep.failed = all.units, all.failed+all.mismatched
		rep.correct = rep.failed == 0
		rep.info["failed_share"] = ratio(float64(rep.failed), float64(rep.attempted))
	}

	if o.trace == 0 {
		heap := startHeapSampler(5 * time.Millisecond)
		fixed := openLoop(ctx, t, spec, in, ref, rng(), dur, nil)
		count(fixed)
		peak := heap.peakMB()
		t.close()
		finish()
		rep.metrics = map[string]float64{
			"setup_s":        setupS,
			"units_per_s":    fixed.throughput(),
			"batch_p50_ms":   tailQuantile(fixed.batchMS(), 0.5, 0),
			"batch_p90_ms":   tailQuantile(fixed.batchMS(), 0.9, 0),
			"latency_p50_ms": tailQuantile(fixed.latencyMS, 0.5, 0),
			"latency_p90_ms": tailQuantile(fixed.latencyMS, 0.9, 0),
			"ii_over_mii":    ratio(float64(all.iiSum), float64(all.miiSum)),
			"peak_heap_mb":   peak,
		}
		rep.info["requests"] = float64(len(fixed.latencyMS))
		rep.info["latency_p99_ms"] = tailQuantile(fixed.latencyMS, 0.99, 0)
		late := quantile(fixed.lateMS, 0.99)
		rep.info["loadgen.late_p99_ms"] = late
		rep.notes = append(rep.notes, generatorNote(late)...)
		return rep, nil
	}

	base := openLoop(ctx, t, spec, in, ref, rng(), dur/2, nil)
	count(base)
	t.close()
	tr := newTracer()
	tt, err := openTopology(ctx, topoOptions{tr: tr})
	if err == nil {
		if err = warm(ctx, tt, spec, in); err != nil {
			tt.close()
		}
	}
	if err != nil {
		return nil, err
	}
	before, err := tt.cli.Metrics(ctx)
	if err != nil {
		tt.close()
		return nil, err
	}
	tr.on.Store(true)
	start := time.Now()
	traced := openLoop(ctx, tt, spec, in, ref, rng(), dur/2, tr)
	wall := time.Since(start)
	tr.on.Store(false)
	count(traced)
	after, err := tt.cli.Metrics(ctx)
	tt.close()
	if err != nil {
		return nil, err
	}
	finish()
	rep.metrics, rep.notes, err = layerMetrics(ctx, &traceRun{
		spans: tr.snapshot(), traced: traced, base: base, wall: wall,
		before: before, after: after, cfgs: cfgs, in: in,
	})
	if err == nil {
		rep.notes = append(rep.notes, generatorNote(rep.metrics["loadgen.late_p99_ms"])...)
	}
	return rep, err
}

// generatorNote flags a run whose own sender lateness (sends against
// their senders' on-time clocks) exceeds twice the runtime's timer
// granularity: an idle Go runtime rounds sub-millisecond sleeps up to
// a millisecond, so up to ~1 ms is the generator's resolution, and
// more means the generator, not the server, fell behind. Lateness is
// not charged to the requests, but the arrivals behind it bunched.
func generatorNote(lateP99 float64) []string {
	if lateP99 > 2 {
		return []string{fmt.Sprintf("WARNING: load generator fell behind (late p99 %.3f ms); its late sends made arrivals burstier than scheduled", lateP99)}
	}
	return nil
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// readMetricDefs returns the end-to-end metrics of the benchmark file,
// or its per-layer metrics when perLayer is set.
func readMetricDefs(path string, perLayer bool) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if perLayer {
		return b.PerLayer, nil
	}
	return b.EndToEnd, nil
}
