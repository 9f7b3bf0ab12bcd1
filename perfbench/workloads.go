package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/server"
)

// group is one request shape: the loops of a batch × these machines ×
// these schedulers.
type group struct {
	machines   []api.MachineSpec
	schedulers []string
}

// closedSpec describes a closed-loop batch workload: one client
// submits a batch, reads every result, and only then sends the next.
// Every batch is sent with no_cache, so each unit is compiled.
type closedSpec struct {
	pool          int // loops generated from the seed; batches walk it in order
	loopsPerBatch int
	groups        []group // one async job per group and batch
	clients       int     // concurrent closed loops (0 = 1)
	workers       int     // > 0: durable (fsync) coordinator with in-process workers
	// maxUnitsPerS sizes the latency buffer, allocated before the timed
	// phase, so the benchmark's own memory does not grow with the
	// service's speed until the service resolves more units than this.
	maxUnitsPerS int
	// pinned draws the pool from the paper's pinned corpus seed and
	// lets --seed only order it, for a workload whose per-loop cost is
	// so heavy-tailed that a fresh draw per seed would swamp the
	// measurement.
	pinned bool
}

// serveSpec describes the open-loop cache-hit workload.
type serveSpec struct {
	workingSet int
	rate       float64 // Poisson arrivals per second
	group      group
}

type workload struct {
	name   string
	closed *closedSpec
	serve  *serveSpec
}

func clustered(c int) api.MachineSpec { return api.MachineSpec{Clusters: c} }
func flat(c int) api.MachineSpec      { return api.MachineSpec{Clusters: c, Unclustered: true} }

var workloads = []workload{
	{name: "batch-cold", closed: &closedSpec{
		pool: 16000, loopsPerBatch: 25, maxUnitsPerS: 40000,
		groups: []group{
			{machines: []api.MachineSpec{clustered(2), clustered(4), clustered(8)}, schedulers: []string{"dms"}},
			{machines: []api.MachineSpec{flat(4)}, schedulers: []string{"ims"}},
		},
	}},
	{name: "serve-warm", serve: &serveSpec{
		workingSet: 1024, rate: 300,
		group: group{machines: []api.MachineSpec{clustered(4), clustered(8)}, schedulers: []string{"dms"}},
	}},
	{name: "drain-durable", closed: &closedSpec{
		pool: 8000, loopsPerBatch: 100, workers: 2, maxUnitsPerS: 8000,
		groups: []group{{machines: []api.MachineSpec{clustered(4)}, schedulers: []string{"dms"}}},
	}},
	{name: "exact-certify", closed: &closedSpec{
		pool: 200, loopsPerBatch: 1, pinned: true, clients: 2, maxUnitsPerS: 2000,
		groups: []group{{machines: []api.MachineSpec{flat(1), flat(2), flat(4)}, schedulers: []string{"exact"}}},
	}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are a workload's generated loops, as the wire carries them.
type inputs struct {
	texts  []string
	digest string // sha256 over the texts, in order
}

// generate draws n loops from perfect.CorpusN(seed, n); pinned draws
// them from the pinned corpus seed and shuffles them by seed instead.
func generate(seed int64, n int, pinned bool) inputs {
	corpus := perfect.CorpusN(seed, n)
	if pinned {
		corpus = perfect.CorpusN(perfect.DefaultSeed, n)
		rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	}
	h := sha256.New()
	in := inputs{texts: make([]string, n)}
	for i, l := range corpus {
		in.texts[i] = loop.Format(l)
		h.Write([]byte(in.texts[i]))
	}
	in.digest = fmt.Sprintf("%x", h.Sum(nil))
	return in
}

// config is one (machine, scheduler) pair of a workload; jobKey names
// one compile unit by loop and config.
type config struct {
	machine   api.MachineSpec
	scheduler string
}

// target builds the machine the server builds from the wire spec.
func (c config) target() *machine.Machine {
	if c.machine.Unclustered {
		return machine.Unclustered(c.machine.Clusters)
	}
	return machine.Clustered(c.machine.Clusters)
}

type jobKey struct{ loop, cfg int }

// resultHashes holds the hash of the last result seen for every job of
// a pool, densely by loop × config. It is allocated whole before the
// timed phase, so its size does not depend on how many units a run
// resolves.
type resultHashes struct {
	ncfg int
	hash [][32]byte
	set  []bool
}

func newResultHashes(pool, ncfg int) *resultHashes {
	return &resultHashes{ncfg: ncfg, hash: make([][32]byte, pool*ncfg), set: make([]bool, pool*ncfg)}
}

// put records h for k and reports whether an earlier result for k
// hashed differently.
func (r *resultHashes) put(k jobKey, h [32]byte) (differs bool) {
	i := k.loop*r.ncfg + k.cfg
	differs = r.set[i] && r.hash[i] != h
	r.hash[i], r.set[i] = h, true
	return differs
}

// keys returns every job seen, by loop and then config.
func (r *resultHashes) keys() []jobKey {
	var out []jobKey
	for i, ok := range r.set {
		if ok {
			out = append(out, jobKey{i / r.ncfg, i % r.ncfg})
		}
	}
	return out
}

func (r *resultHashes) get(k jobKey) [32]byte { return r.hash[k.loop*r.ncfg+k.cfg] }

func configs(groups []group) (cfgs []config, base []int) {
	for _, g := range groups {
		base = append(base, len(cfgs))
		for _, m := range g.machines {
			for _, s := range g.schedulers {
				cfgs = append(cfgs, config{m, s})
			}
		}
	}
	return cfgs, base
}

// normalize clears the fields that legitimately differ between a
// streamed record and the direct compile: its position and whether
// the cache served it.
func normalize(rec api.JobResult) api.JobResult {
	rec.Index, rec.Cached = 0, false
	return rec
}

func recordHash(rec api.JobResult) ([32]byte, error) {
	b, err := json.Marshal(normalize(rec))
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// reference compiles every key directly with driver.CompileAll and
// returns each result in the service's wire form.
func reference(ctx context.Context, texts []string, cfgs []config, keys []jobKey) (map[jobKey]api.JobResult, error) {
	parsed := make(map[int]*loop.Loop)
	jobList := make([]driver.Job, len(keys))
	for i, k := range keys {
		l, ok := parsed[k.loop]
		if !ok {
			var err error
			if l, err = loop.ParseString(texts[k.loop]); err != nil {
				return nil, err
			}
			parsed[k.loop] = l
		}
		c := cfgs[k.cfg]
		jobList[i] = driver.Job{Loop: l, Machine: c.target(), Scheduler: c.scheduler}
	}
	// Every machine of the workloads carries machine.DefaultLatencies,
	// the batch default, which is also what the server passes on.
	results := driver.CompileAll(ctx, jobList, driver.BatchOptions{})
	out := make(map[jobKey]api.JobResult, len(keys))
	for i, k := range keys {
		out[k] = server.Record(results[i])
	}
	return out, nil
}

// tally accumulates the wire statistics of checked results.
type tally struct {
	units, failed, mismatched         int
	iiSum, miiSum                     int
	iisTried, placements, evictions   int
	dmsUnits, chainsBuilt, movesIns   int
	exactUnits, proved                int
	conflicts, decisions, props, solv int
}

func (t *tally) add(rec api.JobResult, scheduler string) {
	t.units++
	if rec.Error != "" || rec.Stats == nil {
		t.failed++
		return
	}
	t.iiSum += rec.II
	t.miiSum += rec.MII
	st := rec.Stats
	t.iisTried += st.IIsTried
	t.placements += st.Placements
	t.evictions += st.Evictions
	switch scheduler {
	case "dms":
		t.dmsUnits++
		t.chainsBuilt += st.Extra["chains_built"]
		t.movesIns += st.Extra["moves_inserted"]
	case "exact":
		t.exactUnits++
		if st.ProvedOptimal {
			t.proved++
		}
		t.conflicts += st.Extra["sat_conflicts"]
		t.decisions += st.Extra["sat_decisions"]
		t.props += st.Extra["sat_propagations"]
		t.solv += st.Extra["sat_solves"]
	}
}

// rootRec is one client request as the loadgen saw it: a batch on the
// closed loops, one /v1/compile call on serve-warm. Times are on the
// tracer clock.
type rootRec struct {
	id         uint64
	start, end int64
	jobs       []string
}

// timed is one batch or request: its start in seconds into the phase,
// its duration and the units it resolved.
type timed struct {
	at, ms float64
	units  int
}

// phase is what one measured phase of a workload produced.
type phase struct {
	batches   []timed   // closed: one per batch, submit→last summary; serve: one per request, send→response
	latencyMS []float32 // closed: per unit, submit→arrival; serve: per request, due→response; in completion order
	lateMS    []float64 // serve: how late each request left against its on-time schedule
	inflight  int
	tally     tally
	// Traced phases only.
	roots     []rootRec
	engineMS  [][2]float64 // per job: queue wait, run
	sampleRec []api.JobResult
	sampleKey []jobKey
}

const sampleCap = 1000

// closedRun is one measured phase of a closed-loop workload: its
// clients share the pool cursor, the phase record and the map of
// result hashes the reference check reads.
type closedRun struct {
	t          *topology
	spec       *closedSpec
	in         inputs
	tr         *tracer
	cfgs       []config
	base       []int // first config index of each group
	phaseStart time.Time

	mu     sync.Mutex // guards the fields below
	cursor *int
	seen   *resultHashes
	ph     *phase
}

// runClosed drives spec.clients closed loops of batches until dur has
// passed, walking the pool from *cursor. Every result is hashed after
// its batch completes (outside the batch's timing) for the reference
// check.
func runClosed(ctx context.Context, t *topology, spec *closedSpec, in inputs, cursor *int, dur time.Duration, tr *tracer, seen *resultHashes) (*phase, error) {
	ph := &phase{latencyMS: make([]float32, 0, int(float64(spec.maxUnitsPerS)*dur.Seconds()))}
	r := &closedRun{t: t, spec: spec, in: in, tr: tr, phaseStart: time.Now(), cursor: cursor, seen: seen, ph: ph}
	r.cfgs, r.base = configs(spec.groups)
	deadline := r.phaseStart.Add(dur)
	errs := make([]error, max(spec.clients, 1))
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[c] == nil && time.Now().Before(deadline) {
				errs[c] = r.batch(ctx)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return r.ph, nil
}

// batch runs the next batch of the pool and folds its outcome in.
func (r *closedRun) batch(ctx context.Context) error {
	loops := make([]int, r.spec.loopsPerBatch)
	texts := make([]string, len(loops))
	r.mu.Lock()
	for i := range loops {
		loops[i] = *r.cursor % len(r.in.texts)
		texts[i] = r.in.texts[loops[i]]
		*r.cursor++
	}
	r.mu.Unlock()
	reqs := r.spec.requests(texts)
	out, err := runBatch(ctx, r.t, reqs, r.tr)
	if err != nil {
		return err
	}
	var engine [][2]float64
	if r.tr != nil {
		for _, id := range out.root.jobs {
			j, err := r.t.cli.Job(ctx, id)
			if err != nil {
				return err
			}
			engine = append(engine, [2]float64{
				float64(j.StartedUnixMS - j.CreatedUnixMS),
				float64(j.FinishedUnixMS - j.StartedUnixMS),
			})
		}
	}

	// Hash outside the lock, fold in under it.
	var bt tally
	var keys []jobKey
	var hashes [][32]byte
	var recs []api.JobResult
	for g, rs := range out.recs {
		req := reqs[g]
		missing := req.Jobs() - len(rs)
		bt.units += missing
		bt.failed += missing
		for _, rec := range rs {
			li, mi, si := req.JobAxes(rec.Index)
			key := jobKey{loop: loops[li], cfg: r.base[g] + mi*len(req.Schedulers) + si}
			bt.add(rec, r.cfgs[key.cfg].scheduler)
			h, err := recordHash(rec)
			if err != nil {
				return err
			}
			keys, hashes, recs = append(keys, key), append(hashes, h), append(recs, rec)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.ph
	at := out.start.Sub(r.phaseStart).Seconds()
	ph.batches = append(ph.batches, timed{at: at, ms: ms(out.makespan), units: bt.units - bt.failed})
	for _, a := range out.arrivalMS {
		ph.latencyMS = append(ph.latencyMS, float32(a))
	}
	if r.tr != nil {
		ph.roots = append(ph.roots, out.root)
		ph.engineMS = append(ph.engineMS, engine...)
	}
	for i, key := range keys {
		if r.seen.put(key, hashes[i]) {
			bt.mismatched++
		}
		if len(ph.sampleRec) < sampleCap {
			ph.sampleRec = append(ph.sampleRec, recs[i])
			ph.sampleKey = append(ph.sampleKey, key)
		}
	}
	ph.tally = sumTally(ph.tally, bt)
	return nil
}

// requests returns the batch of the spec over texts: one no_cache
// request per group.
func (s *closedSpec) requests(texts []string) []api.CompileRequest {
	reqs := make([]api.CompileRequest, len(s.groups))
	for g, grp := range s.groups {
		reqs[g] = api.CompileRequest{Loops: texts, Machines: grp.machines, Schedulers: grp.schedulers, NoCache: true}
	}
	return reqs
}

// runWhole runs one untimed batch and fails unless every unit resolved
// without an error.
func runWhole(ctx context.Context, t *topology, reqs []api.CompileRequest) error {
	out, err := runBatch(ctx, t, reqs, nil)
	if err != nil {
		return err
	}
	for g, rs := range out.recs {
		if len(rs) != reqs[g].Jobs() {
			return fmt.Errorf("batch returned %d of %d results", len(rs), reqs[g].Jobs())
		}
		for _, rec := range rs {
			if rec.Error != "" {
				return fmt.Errorf("%s: %s", rec.Job, rec.Error)
			}
		}
	}
	return nil
}

type batchOut struct {
	start     time.Time
	makespan  time.Duration
	arrivalMS []float64
	recs      [][]api.JobResult
	root      rootRec
}

// runBatch submits every request of one batch, then reads their result
// streams concurrently (one goroutine per job; batches carry at most
// nproc jobs).
func runBatch(ctx context.Context, t *topology, reqs []api.CompileRequest, tr *tracer) (*batchOut, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	out := &batchOut{recs: make([][]api.JobResult, len(reqs))}
	if tr != nil {
		out.root.id = tr.ids.Add(1)
		ctx = withRoot(ctx, out.root.id)
		out.root.start = tr.now()
	}
	t0 := time.Now()
	out.start = t0
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		j, err := t.cli.Submit(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			continue // refused: its missing results count as failed
		}
		ids[i] = j.ID
	}
	arrivals := make([][]float64, len(reqs))
	read := func(i int) {
		for rec, err := range t.cli.Results(ctx, ids[i]) {
			if err != nil {
				return // the missing results count as failed
			}
			arrivals[i] = append(arrivals[i], ms(time.Since(t0)))
			out.recs[i] = append(out.recs[i], rec)
		}
	}
	if len(ids) == 1 {
		if ids[0] != "" {
			read(0)
		}
	} else {
		var wg sync.WaitGroup
		for i, id := range ids {
			if id == "" {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				read(i)
			}()
		}
		wg.Wait()
	}
	out.makespan = time.Since(t0)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("batch did not finish within a minute: %w", ctx.Err())
	}
	for _, a := range arrivals {
		out.arrivalMS = append(out.arrivalMS, a...)
	}
	if tr != nil {
		out.root.end = tr.now()
		for _, id := range ids {
			if id != "" {
				out.root.jobs = append(out.root.jobs, id)
			}
		}
	}
	return out, nil
}

// serveRef holds the decoded reference record of every working-set
// job, for the per-response check.
type serveRef map[jobKey]api.JobResult

func buildServeRef(ctx context.Context, in inputs, cfgs []config) (serveRef, error) {
	var keys []jobKey
	for l := range in.texts {
		for c := range cfgs {
			keys = append(keys, jobKey{l, c})
		}
	}
	ref, err := reference(ctx, in.texts, cfgs, keys)
	if err != nil {
		return nil, err
	}
	out := make(serveRef, len(ref))
	for k, rec := range ref {
		// Round-trip through the wire form so both sides of the
		// comparison were decoded the same way.
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		var dec api.JobResult
		if err := json.Unmarshal(b, &dec); err != nil {
			return nil, err
		}
		out[k] = dec
	}
	return out, nil
}

// warm compiles the whole working set through the service so every
// later request is a cache hit.
func warm(ctx context.Context, t *topology, spec *serveSpec, in inputs) error {
	recs, _, err := t.cli.CompileAll(ctx, api.CompileRequest{Loops: in.texts, Machines: spec.group.machines, Schedulers: spec.group.schedulers})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Error != "" {
			return fmt.Errorf("warm-up: %s: %s", rec.Job, rec.Error)
		}
	}
	return nil
}

// openLoop sends Poisson arrivals at spec.rate per second for dur,
// from nproc sender goroutines. Each request is timed from when it was
// due, on its sender's on-time clock: the time the sender would have
// been free had every one of its sends left exactly when due. A request
// waits, and the wait counts, while its sender is still serving earlier
// requests; the sender's own timer oversleep is not charged to the
// service and is reported as generator lateness instead.
func openLoop(ctx context.Context, t *topology, spec *serveSpec, in inputs, ref serveRef, rng *rand.Rand, dur time.Duration, tr *tracer) *phase {
	var offs []time.Duration
	var picks []int
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second))
		if at >= dur {
			break
		}
		offs = append(offs, at)
		picks = append(picks, rng.Intn(len(in.texts)))
	}
	n := len(offs)
	type reqOut struct {
		at                     time.Duration // sent, since the phase start
		latency, service, late time.Duration
		units                  int
		sent, ok               bool
		root                   rootRec
	}
	res := make([]reqOut, n)
	cfgs, _ := configs([]group{spec.group})
	senders := runtime.NumCPU()
	tallies := make([]tally, senders)
	var mu sync.Mutex // guards the sample
	ph := &phase{}
	var next atomic.Int64
	var inflight, inflightMax atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := &tallies[w]
			onTime := start // when this sender would be free had it sent every request when due
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(offs[i])
				var r reqOut
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				cur := inflight.Add(1)
				for m := inflightMax.Load(); cur > m && !inflightMax.CompareAndSwap(m, cur); m = inflightMax.Load() {
				}
				rctx := ctx
				if tr != nil {
					r.root.id = tr.ids.Add(1)
					r.root.start = tr.now()
					rctx = withRoot(ctx, r.root.id)
				}
				pick := picks[i]
				recs, _, err := t.cli.CompileAll(rctx, api.CompileRequest{
					Loops: []string{in.texts[pick]}, Machines: spec.group.machines, Schedulers: spec.group.schedulers,
				})
				end := time.Now()
				if tr != nil {
					r.root.end = tr.now()
				}
				inflight.Add(-1)
				begin := due
				if onTime.After(due) {
					begin = onTime
				}
				r.at, r.service, r.late = sent.Sub(start), end.Sub(sent), sent.Sub(begin)
				r.latency = begin.Sub(due) + r.service
				onTime = begin.Add(r.service)
				r.sent, r.ok, r.units = true, err == nil, len(recs)
				if err != nil {
					tl.units += len(cfgs)
					tl.failed += len(cfgs)
				}
				// Checked after the timing, before the sender's next send.
				for _, rec := range recs {
					key := jobKey{pick, rec.Index}
					tl.add(rec, cfgs[key.cfg].scheduler)
					if want, ok := ref[key]; !ok || !reflect.DeepEqual(normalize(rec), want) {
						tl.mismatched++
					}
				}
				mu.Lock()
				for _, rec := range recs {
					if len(ph.sampleRec) < sampleCap {
						ph.sampleRec = append(ph.sampleRec, rec)
						ph.sampleKey = append(ph.sampleKey, jobKey{pick, rec.Index})
					}
				}
				mu.Unlock()
				res[i] = r
			}
		}()
	}
	wg.Wait()
	ph.inflight = int(inflightMax.Load())
	for _, tl := range tallies {
		ph.tally = sumTally(ph.tally, tl)
	}
	for i := range res {
		r := &res[i]
		if !r.sent {
			continue // ctx ended first
		}
		ph.batches = append(ph.batches, timed{at: r.at.Seconds(), ms: ms(r.service), units: r.units})
		lat := float32(ms(r.latency))
		if !r.ok {
			lat = float32(math.Inf(1)) // a failed request misses every latency limit
		}
		ph.latencyMS = append(ph.latencyMS, lat)
		ph.lateMS = append(ph.lateMS, ms(r.late))
		if tr != nil {
			ph.roots = append(ph.roots, r.root)
		}
	}
	return ph
}

// tailQuantile is the lower quartile, over consecutive chunks of
// samples in recorded order, of the q-quantile within each chunk. A
// chunk holds 10/(1−q) samples, so each chunk's quantile has ten
// samples beyond it, and at least minChunk. Interference from the rest of a shared host only
// adds time, and it comes and goes within a run: the quietest quarter
// of the chunks shows the service's own cost, and a stall that hits
// most of them still cannot move it far. With fewer samples than one
// chunk it is the plain quantile.
func tailQuantile[T float32 | float64](xs []T, q float64, minChunk int) float64 {
	size := max(int(math.Ceil(10/(1-q))), minChunk)
	var per []float64
	for lo := 0; lo < len(xs); {
		hi := lo + size
		if len(xs)-hi < size {
			hi = len(xs) // the remainder joins the last chunk
		}
		chunk := make([]float64, 0, hi-lo)
		for _, x := range xs[lo:hi] {
			chunk = append(chunk, float64(x))
		}
		per = append(per, quantile(chunk, q))
		lo = hi
	}
	return quantile(per, 0.25)
}

func (ph *phase) batchMS() []float64 {
	out := make([]float64, len(ph.batches))
	for i, b := range ph.batches {
		out[i] = b.ms
	}
	return out
}

// busy is the time at least one batch or request was in flight.
func (ph *phase) busy() time.Duration {
	iv := make([]interval, len(ph.batches))
	for i, b := range ph.batches {
		lo := int64(b.at * float64(time.Second))
		iv[i] = interval{lo, lo + int64(b.ms*float64(time.Millisecond))}
	}
	return time.Duration(total(merge(iv)))
}

// throughput is the median over one-second windows (by start) of the
// units the window's batches resolved per second they were in flight.
func (ph *phase) throughput() float64 {
	windows := map[int]*phase{}
	for _, b := range ph.batches {
		w := windows[int(b.at)]
		if w == nil {
			w = &phase{}
			windows[int(b.at)] = w
		}
		w.batches = append(w.batches, b)
	}
	var rates []float64
	for _, w := range windows {
		units := 0
		for _, b := range w.batches {
			units += b.units
		}
		rates = append(rates, float64(units)/w.busy().Seconds())
	}
	return median(rates)
}
