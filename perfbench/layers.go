package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/loop"
	"repro/internal/server"
)

// traceRun is everything a traced run hands to the per-layer
// breakdown.
type traceRun struct {
	spans         []span
	traced, base  *phase // the traced half and the untraced half
	wall          time.Duration
	before, after *api.ServerMetrics
	workers       int
	cfgs          []config
	in            inputs
	scratch       string // directory for the WAL and store replays
}

// layerMetrics computes every per-layer metric of BENCHMARK.json from a
// traced run, plus report lines naming where an unreconciled gap sits.
func layerMetrics(ctx context.Context, r *traceRun) (map[string]float64, []string, error) {
	m := make(map[string]float64)
	var notes []string
	byKind := map[spanKind][]span{}
	for _, s := range r.spans {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	schedByJob := map[string][]interval{}
	schedDur := map[string][]float64{}
	var schedBusy, workerBusy time.Duration
	for _, s := range byKind[kindSched] {
		schedByJob[s.job] = append(schedByJob[s.job], interval{s.start, s.end})
		schedDur[s.name] = append(schedDur[s.name], us(time.Duration(s.end-s.start)))
		if s.job == "" {
			workerBusy += time.Duration(s.end - s.start)
		} else {
			schedBusy += time.Duration(s.end - s.start)
		}
	}
	for j, iv := range schedByJob {
		schedByJob[j] = merge(iv)
	}

	// Client round trips and server self time, per route.
	rtt := map[string][]float64{}
	for _, s := range byKind[kindTransport] {
		rtt[s.name] = append(rtt[s.name], us(time.Duration(s.end-s.start)))
	}
	self := map[string][]float64{}
	for _, s := range byKind[kindServer] {
		d := s.end - s.start
		if s.job != "" {
			d -= total(clip(schedByJob[s.job], s.start, s.end))
		}
		self[s.name] = append(self[s.name], us(time.Duration(d)))
	}
	for _, route := range []string{"compile", "jobs", "results", "lease", "worker_results"} {
		m["client.http_rtt_us."+route+".p50"] = quantile(rtt[route], 0.5)
		m["client.http_rtt_us."+route+".p99"] = quantile(rtt[route], 0.99)
		m["server.self_us."+route] = median(self[route])
	}
	m["driver.schedule_us.dms.p50"] = quantile(schedDur["dms"], 0.5)
	m["driver.schedule_us.dms.p99"] = quantile(schedDur["dms"], 0.99)
	m["driver.schedule_us.ims.p50"] = quantile(schedDur["ims"], 0.5)
	m["driver.schedule_us.ims.p99"] = quantile(schedDur["ims"], 0.99)
	m["exact.schedule_us.p50"] = quantile(schedDur["exact"], 0.5)
	m["exact.schedule_us.p99"] = quantile(schedDur["exact"], 0.99)
	procs := float64(runtime.GOMAXPROCS(0))
	m["sched.busy_share"] = ratio(float64(schedBusy), procs*float64(r.wall))
	m["worker.busy_share"] = ratio(float64(workerBusy), float64(r.workers)*float64(r.wall))

	notes = append(notes, reconcile(r, byKind, schedByJob, m)...)
	plan := dispatchMetrics(byKind[kindServer], m)

	// Counters from /v1/metrics, as deltas over the traced half.
	b, a := r.before, r.after
	hits := float64(a.Cache.Hits - b.Cache.Hits)
	misses := float64(a.Cache.Misses - b.Cache.Misses)
	m["cache.hit_share"] = ratio(hits, hits+misses)
	m["cache.evictions"] = float64(a.Cache.Evictions - b.Cache.Evictions)
	m["cache.inserts"] = float64(a.Cache.Entries-b.Cache.Entries) + m["cache.evictions"]
	m["engine.rejected"] = float64(a.Queue.Rejected - b.Queue.Rejected)
	if a.Dispatch != nil && b.Dispatch != nil {
		m["dispatch.requeued"] = float64(a.Dispatch.Requeued - b.Dispatch.Requeued)
		m["dispatch.useful_share"] = ratio(float64(a.Dispatch.Resolved-b.Dispatch.Resolved), float64(a.Dispatch.Dispatched-b.Dispatch.Dispatched))
	}
	var wait, run []float64
	for _, e := range r.traced.engineMS {
		wait, run = append(wait, e[0]), append(run, e[1])
	}
	m["engine.queue_wait_ms"] = median(wait)
	m["engine.run_ms"] = median(run)

	// Exact counts from the wire statistics.
	t := r.traced.tally
	ok := float64(t.units - t.failed)
	m["sched.iis_tried_per_unit"] = ratio(float64(t.iisTried), ok)
	m["sched.placements_per_unit"] = ratio(float64(t.placements), ok)
	m["sched.evictions_per_unit"] = ratio(float64(t.evictions), ok)
	m["dms.chains_built_per_unit"] = ratio(float64(t.chainsBuilt), float64(t.dmsUnits))
	m["dms.moves_inserted_per_unit"] = ratio(float64(t.movesIns), float64(t.dmsUnits))
	m["exact.proved_share"] = ratio(float64(t.proved), float64(t.exactUnits))
	m["sat.conflicts_per_unit"] = ratio(float64(t.conflicts), float64(t.exactUnits))
	m["sat.decisions_per_unit"] = ratio(float64(t.decisions), float64(t.exactUnits))
	m["sat.propagations_per_unit"] = ratio(float64(t.props), float64(t.exactUnits))
	m["sat.solves_per_unit"] = ratio(float64(t.solv), float64(t.exactUnits))

	m["loadgen.late_p99_ms"] = quantile(slices.Clone(r.traced.lateMS), 0.99)
	m["loadgen.inflight_max"] = float64(r.traced.inflight)
	// Tracing overhead: the traced half's client median against the
	// untraced half's, run back to back on the same inputs.
	m["trace.overhead_share"] = ratio(median(r.traced.batchMS()), median(r.base.batchMS())) - 1

	if err := replay(ctx, r, plan, m); err != nil {
		return nil, nil, err
	}
	return m, notes, nil
}

// reconcile splits every request's client time into disjoint layers —
// sched (scheduler calls of its jobs, or of any worker on the
// coordinator topology), server (route handlers outside sched),
// transport (round trips outside both) and client (the rest) — and
// compares the sum of the layer medians with the client median.
func reconcile(r *traceRun, byKind map[spanKind][]span, schedByJob map[string][]interval, m map[string]float64) []string {
	transportByRoot := map[uint64][]span{}
	for _, s := range byKind[kindTransport] {
		if s.parent != 0 {
			transportByRoot[s.parent] = append(transportByRoot[s.parent], s)
		}
	}
	serverByParent := map[uint64][]interval{}
	for _, s := range byKind[kindServer] {
		serverByParent[s.parent] = append(serverByParent[s.parent], interval{s.start, s.end})
	}
	layers := []string{"client", "transport", "server", "sched"}
	vals := map[string][]float64{}
	var roots []float64
	for _, root := range r.traced.roots {
		var tIv, sIv, xIv []interval
		for _, s := range transportByRoot[root.id] {
			tIv = append(tIv, interval{s.start, s.end})
			sIv = append(sIv, serverByParent[s.id]...)
		}
		for _, j := range root.jobs {
			xIv = append(xIv, schedByJob[j]...)
		}
		xIv = append(xIv, clip(schedByJob[""], root.start, root.end)...)
		all := []interval{{root.start, root.end}}
		x := clip(merge(xIv), root.start, root.end)
		s := subtract(merge(sIv), x)
		tr := subtract(subtract(merge(tIv), merge(sIv)), x)
		cl := subtract(subtract(all, merge(append(tIv, sIv...))), x)
		part := map[string]int64{"sched": total(x), "server": total(s), "transport": total(tr), "client": total(cl)}
		for _, l := range layers {
			vals[l] = append(vals[l], us(time.Duration(part[l])))
		}
		roots = append(roots, us(time.Duration(root.end-root.start)))
	}
	clientMed := median(roots)
	sum := 0.0
	worst, worstSkew := "", 0.0
	for _, l := range layers {
		med := median(vals[l])
		m["trace.layer_us."+l] = med
		sum += med
		if skew := mean(vals[l]) - med; skew > worstSkew {
			worst, worstSkew = l, skew
		}
	}
	m["trace.unaccounted_share"] = ratio(clientMed-sum, clientMed)
	var notes []string
	if share := m["trace.unaccounted_share"]; (share > 0.10 || share < -0.10) && worst != "" {
		notes = append(notes, fmt.Sprintf("reconciliation: layer medians leave %.1f%% of the %.0f us client median unaccounted; "+
			"the gap most likely sits in %s, whose per-request time is the most skewed (mean − median = %.0f us)",
			100*share, clientMed, worst, worstSkew))
	}
	return notes
}

// walPlan is the run's leased units and its median lease and post
// sizes, which the WAL replay repeats.
type walPlan struct {
	units               []api.WorkUnit
	leaseSize, postSize int
}

const walSampleCap = 1000

// dispatchMetrics reads the lease and result-post bodies the server
// middleware kept, mapping unit IDs (<jobID>/<index>) to the time each
// was admitted, leased and acked.
func dispatchMetrics(srv []span, m map[string]float64) walPlan {
	var plan walPlan
	admitted := map[string]int64{}
	leased := map[string]int64{}
	var waits, turns []float64
	leaseRPCs, leases, leasedUnits, posts := 0, 0, 0, 0
	for _, s := range srv {
		var j api.Job
		if s.name == "jobs" && json.Unmarshal(s.body, &j) == nil {
			admitted[j.ID] = s.end
		}
	}
	for _, s := range srv {
		if s.name != "lease" {
			continue
		}
		leaseRPCs++
		var l api.Lease
		if json.Unmarshal(s.body, &l) != nil || len(l.Units) == 0 {
			continue
		}
		leases++
		leasedUnits += len(l.Units)
		for _, u := range l.Units {
			leased[u.ID] = s.end
			if at, ok := admitted[strings.SplitN(u.ID, "/", 2)[0]]; ok {
				waits = append(waits, ms(time.Duration(s.end-at)))
			}
			if len(plan.units) < walSampleCap {
				plan.units = append(plan.units, u)
			}
		}
	}
	postSizes := []float64{}
	for _, s := range srv {
		if s.name != "worker_results" {
			continue
		}
		var req api.WorkResultsRequest
		var resp api.WorkResultsResponse
		// A post the coordinator refused (an expired lease) acked nothing.
		if json.Unmarshal(s.body, &req) != nil || json.Unmarshal(s.resp, &resp) != nil || len(req.Results) == 0 || resp.Acked == 0 {
			continue
		}
		posts++
		postSizes = append(postSizes, float64(len(req.Results)))
		for _, ur := range req.Results {
			if at, ok := leased[ur.Unit]; ok {
				turns = append(turns, ms(time.Duration(s.end-at)))
			}
		}
	}
	m["dispatch.lease_rpcs_per_unit"] = ratio(float64(leaseRPCs), float64(leasedUnits))
	m["dispatch.posts_per_unit"] = ratio(float64(posts), float64(leasedUnits))
	m["dispatch.units_per_lease"] = ratio(float64(leasedUnits), float64(leases))
	m["dispatch.unit_wait_ms"] = median(waits)
	m["dispatch.unit_turnaround_ms"] = median(turns)
	plan.postSize = max(int(median(postSizes)+0.5), 1)
	plan.leaseSize = max(int(m["dispatch.units_per_lease"]+0.5), 1)
	return plan
}

// replay times the layers the program gives no seam for, over the
// run's own inputs: loop parsing, cache keys, NDJSON encode/decode, a
// cache hit, the driver's prepare/MII/verify steps and, on the durable
// workload, WAL batch acks and result-store appends.
func replay(ctx context.Context, r *traceRun, plan walPlan, m map[string]float64) error {
	recs, keys := r.traced.sampleRec, r.traced.sampleKey
	if len(recs) == 0 {
		return fmt.Errorf("traced run produced no results to replay")
	}
	var order []int // distinct loops, in sample order
	loopOf := map[int]*loop.Loop{}
	for _, k := range keys {
		if _, ok := loopOf[k.loop]; !ok {
			loopOf[k.loop] = nil
			order = append(order, k.loop)
		}
	}
	parsed := make([]*loop.Loop, len(order))
	m["loop.parse_us_per_loop"] = perOp(len(order), func(i int) {
		parsed[i], _ = loop.ParseString(r.in.texts[order[i]])
	})
	for i, l := range parsed {
		if l == nil {
			return fmt.Errorf("replay: loop %d does not parse", order[i])
		}
		loopOf[order[i]] = l
	}
	jobList := make([]driver.Job, len(keys))
	for i, k := range keys {
		c := r.cfgs[k.cfg]
		jobList[i] = driver.Job{Loop: loopOf[k.loop], Machine: c.target(), Scheduler: c.scheduler}
	}
	hashes := make([]string, len(jobList))
	m["server.key_us_per_job"] = perOp(len(jobList), func(i int) { hashes[i] = server.JobKey(jobList[i]) })

	enc := json.NewEncoder(io.Discard)
	m["api.encode_us_per_rec"] = perOp(len(recs), func(i int) { enc.Encode(recs[i]) })
	lines := make([][]byte, len(recs))
	bytesTotal := 0
	for i, rec := range recs {
		lines[i], _ = json.Marshal(rec)
		bytesTotal += len(lines[i]) + 1
	}
	m["api.bytes_per_rec"] = float64(bytesTotal) / float64(len(recs))
	m["api.decode_us_per_rec"] = perOp(len(lines), func(i int) { api.DecodeStreamLine(lines[i]) })

	cache := server.NewCache(0)
	for i, h := range hashes {
		cache.Add(h, recs[i])
	}
	m["cache.hit_us"] = perOp(len(hashes), func(i int) {
		cache.Do(ctx, hashes[i], func() (any, error) { return recs[i], nil })
	})

	scheds := make([]driver.Scheduler, len(jobList))
	for i, j := range jobList {
		s, err := driver.Get(j.Scheduler)
		if err != nil {
			return err
		}
		scheds[i] = s
	}
	n := min(len(jobList), 200)
	m["driver.prepare_us"] = perOp(n, func(i int) {
		driver.Prepare(scheds[i], jobList[i].Loop, jobList[i].Machine, jobList[i].Machine.Lat)
	})
	var miiTotal time.Duration
	for i := range n {
		g, _ := driver.Prepare(scheds[i], jobList[i].Loop, jobList[i].Machine, jobList[i].Machine.Lat)
		start := time.Now()
		g.MII(jobList[i].Machine)
		miiTotal += time.Since(start)
	}
	m["ddg.mii_us"] = us(miiTotal) / float64(n)
	var verifyTotal time.Duration
	verified := 0
	for i := range min(n, 50) {
		res := driver.Compile(ctx, jobList[i], driver.BatchOptions{})
		if res.Err != nil {
			continue
		}
		start := time.Now()
		driver.Verify(res.Schedule)
		verifyTotal += time.Since(start)
		verified++
	}
	m["driver.verify_us"] = ratio(us(verifyTotal), float64(verified))

	if len(plan.units) > 0 {
		if err := replayDurable(r.scratch, plan, recs, m); err != nil {
			return err
		}
	} else {
		m["wal.ackbatch_us"], m["wal.bytes_per_unit"], m["store.append_us"] = 0, 0, 0
	}
	return nil
}

// perOp times f over 0..n-1, repeating the sweep until at least 50 ms
// have passed, and returns the mean microseconds per call.
func perOp(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < 50*time.Millisecond {
		for i := range n {
			f(i)
		}
		calls += n
	}
	return us(time.Since(start)) / float64(calls)
}

// replayDurable appends the leased units to a fresh fsync'd WALQueue,
// leases and batch-acks them in the run's lease and post sizes, and
// appends the sampled results to a fresh fsync'd DiskStore.
func replayDurable(dir string, plan walPlan, recs []api.JobResult, m map[string]float64) error {
	walDir, storeDir := filepath.Join(dir, "replay-wal"), filepath.Join(dir, "replay-store")
	defer os.RemoveAll(walDir)
	defer os.RemoveAll(storeDir)
	q, err := jobs.NewWALQueue(jobs.NewMemQueue(0), walDir, jobs.WALOptions{Sync: true})
	if err != nil {
		return err
	}
	for _, u := range plan.units {
		if err := q.Enqueue(jobs.Task{ID: u.ID, Hash: u.Hash, Payload: u}); err != nil {
			q.Close()
			return err
		}
	}
	m["wal.bytes_per_unit"] = float64(q.WALBytes()) / float64(len(plan.units))
	var ackTotal time.Duration
	acks := 0
	for {
		lease, tasks := q.Lease("replay", plan.leaseSize, 0)
		if len(tasks) == 0 {
			break
		}
		for lo := 0; lo < len(tasks); lo += plan.postSize {
			ids := []string{}
			for _, t := range tasks[lo:min(lo+plan.postSize, len(tasks))] {
				ids = append(ids, t.ID)
			}
			start := time.Now()
			q.AckBatch(lease, ids)
			ackTotal += time.Since(start)
			acks++
		}
	}
	if err := q.Close(); err != nil {
		return err
	}
	m["wal.ackbatch_us"] = ratio(us(ackTotal), float64(acks))

	store, err := jobs.NewDiskStore(storeDir, true)
	if err != nil {
		return err
	}
	buf := store.Create("replay")
	n := min(len(recs), 300)
	start := time.Now()
	for _, rec := range recs[:n] {
		buf.Append(rec)
	}
	m["store.append_us"] = us(time.Since(start)) / float64(n)
	return store.Close()
}
