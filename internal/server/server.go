// Package server is the long-running compile service: an HTTP JSON
// API over the batch driver that accepts loop files, schedules every
// (loop × machine × scheduler) job on a worker pool, and streams
// per-job results back as they complete.
//
// The wire contract — request/response/error types, NDJSON stream
// framing, error codes, protocol versioning — is defined once in the
// public package repro/api/v1 and served under the /v1 route prefix:
//
//	POST   /v1/jobs              — submit a batch asynchronously; the
//	                               response is the created Job resource
//	GET    /v1/jobs/{id}         — poll a job's state and counts
//	GET    /v1/jobs/{id}/results — stream results as NDJSON; ?from=N
//	                               resumes after a dropped connection
//	DELETE /v1/jobs/{id}         — cancel a queued or running job
//	POST   /v1/compile           — synchronous compile; NDJSON stream,
//	                               one api.JobResult per line in
//	                               completion order, closed by a
//	                               terminal summary record
//	GET    /v1/metrics           — service, cache and queue counters
//	GET    /v1/schedulers        — registered back-ends and family
//	GET    /v1/healthz           — liveness probe
//
// Every batch — synchronous or not — flows through one execution
// path: the internal/jobs engine, a bounded FIFO admission queue in
// front of a fixed executor pool, whose executors split each batch into
// compile units on the dispatcher's unit queue. In-process pullers
// (standalone) or worker processes (Options.Distribute) lease the units
// and resolve each through the same queue Ack; with Options.DataDir the
// queue is write-ahead logged, so any interrupted batch resumes after a
// restart. /v1/compile is a thin wrapper that submits a job and streams
// its buffer until the terminal state; when the queue is saturated,
// both surfaces reject with a structured 429 queue_full error and a
// Retry-After hint instead of queueing without bound. Finished jobs
// retain their results for a TTL, so a dropped results connection
// re-attaches with ?from= and replays the buffer instead of
// recomputing.
//
// Identical jobs are memoized in a content-addressed cache (see Key):
// the schedule for a (canonical loop, machine config, scheduler,
// options) quadruple is computed once, concurrent identical requests
// share a single in-flight computation, and repeats are served from an
// LRU-bounded table. Hit/miss/in-flight counters are exported on the
// metrics endpoint.
//
// Cancellation rides the job's context: DELETE /v1/jobs/{id} (or a
// synchronous client disconnecting) withdraws the batch's queued units
// and reaches the II search of the units its pullers hold, which abort
// within one candidate II. A job canceled while still queued never
// reaches the driver at all.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// MaxJobsPerRequest bounds the (loops × machines × schedulers) cross
// product of one request, so a single malformed submission cannot
// monopolize the service.
const MaxJobsPerRequest = 10000

// maxRequestBody bounds the compile/submit request size (16 MiB of
// loop text is far beyond any real corpus).
const maxRequestBody = 16 << 20

// DefaultRetryAfter is the backoff hint sent with queue_full responses
// when Options.RetryAfter is unset.
const DefaultRetryAfter = time.Second

// Options configure the service.
type Options struct {
	// Registry resolves scheduler names (nil = driver.Default).
	Registry *driver.Registry
	// CacheSize bounds the result cache (0 = DefaultCacheSize).
	CacheSize int
	// Timeout bounds each job's scheduling time (0 = none). Requests
	// may tighten it per-job but never exceed it.
	Timeout time.Duration
	// Parallelism is the number of in-process pullers a running batch
	// of a standalone server may hold; the pool has QueueWorkers ×
	// Parallelism of them (0 = GOMAXPROCS).
	Parallelism int
	// QueueCapacity bounds the jobs awaiting an executor; a submission
	// past it is rejected with 429 queue_full (0 = jobs.DefaultCapacity).
	QueueCapacity int
	// QueueWorkers is the number of batches executing concurrently
	// (0 = jobs.DefaultWorkers).
	QueueWorkers int
	// JobTTL is how long a finished job's results are retained for
	// polling and resumed streams (0 = jobs.DefaultTTL).
	JobTTL time.Duration
	// MaxRetainedBytes bounds the approximate total size of retained
	// results; above it the oldest finished jobs are collected before
	// their TTL (0 = jobs.DefaultMaxRetainedBytes).
	MaxRetainedBytes int64
	// RetryAfter is the backoff hint sent with queue_full responses
	// before the server has observed any batch service times
	// (0 = DefaultRetryAfter). Once batches have completed, the hint
	// scales adaptively: queue depth × EWMA batch service time over the
	// executor pool (see adaptiveRetryAfter).
	RetryAfter time.Duration
	// ResultShards spreads the engine's result-buffer index over N
	// content-hash-keyed shards (0 or 1 = the single in-process store).
	ResultShards int
	// Distribute starts no in-process pullers: the server becomes a
	// coordinator, and worker processes (internal/worker, dmsserve -role
	// worker) lease its compile units over /v1/workers. The
	// client-facing API is identical either way.
	Distribute bool
	// LeaseTTL is the worker-lease heartbeat deadline: a lease that
	// posts nothing for this long has its unresolved units requeued
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LeaseTTLExact is the stretched heartbeat deadline for leases
	// carrying exact or portfolio units, whose SAT search may
	// legitimately post nothing for the whole solve
	// (0 = DefaultLeaseTTLExact; never below LeaseTTL).
	LeaseTTLExact time.Duration
	// LeaseChunk is the units handed out to a lease request that names
	// no size of its own — the warm-up hand-out before a
	// self-scheduling worker sizes its own requests
	// (0 = DefaultLeaseChunk).
	LeaseChunk int
	// LeaseChunkMax caps the units handed out per lease regardless of
	// how many the worker requests (0 = DefaultLeaseChunkMax; never
	// below LeaseChunk).
	LeaseChunkMax int
	// WorkerPoll is the re-poll hint sent with empty leases
	// (0 = DefaultWorkerPoll).
	WorkerPoll time.Duration
	// DataDir roots the durable control-plane state: the unit queue's
	// write-ahead log and the job result segments live under it, and a
	// server opened over a previous process's DataDir recovers that
	// state (see Open and recoverDurable). "" keeps queue and results
	// in memory — exactly the pre-durability behavior. With DataDir
	// set, ResultShards is ignored: the disk store is the result index.
	DataDir string
	// Fsync syncs every WAL and segment append to stable storage
	// before acknowledging it; off, appends ride the OS page cache
	// (surviving process crashes but not machine crashes). Meaningful
	// only with DataDir.
	Fsync bool
}

func (o Options) registry() *driver.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return driver.Default
}

func (o Options) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return DefaultRetryAfter
}

// Server is the compile service. Create one with New; it is safe for
// concurrent use.
type Server struct {
	opt      Options
	cache    *Cache
	engine   *jobs.Engine
	dispatch *dispatcher
	durable  *durableState // nil without Options.DataDir

	requests  atomic.Int64
	jobs      atomic.Int64
	jobErrors atomic.Int64
	portfolio portfolioAgg
}

// portfolioAgg aggregates the portfolio meta-scheduler's results as
// they land in job buffers. Aggregating at the emit point — rather
// than inside the scheduler — makes the counters correct wherever a
// unit compiled: on an in-process puller or a remote worker, all
// results flow through the same per-record hook.
type portfolioAgg struct {
	mu      sync.Mutex
	races   int64
	gapObs  int64
	gapSum  int64
	gapMax  int64
	proved  int64
	wins    map[string]int64
	losses  map[string]int64
	cancels map[string]int64
}

// record folds one successful portfolio result into the aggregate.
func (p *portfolioAgg) record(st *api.Stats) {
	keys := make([]string, 0, len(st.Extra))
	//dms:orderok keys are collected then sorted before any counter is touched
	for k := range st.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.races++
	if st.ProvedOptimal {
		gap := int64(st.II - st.OptimalII)
		p.gapObs++
		p.gapSum += gap
		if gap > p.gapMax {
			p.gapMax = gap
		}
		if gap == 0 {
			p.proved++
		}
	}
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, "won_"):
			if p.wins == nil {
				p.wins = make(map[string]int64)
			}
			p.wins[strings.TrimPrefix(k, "won_")]++
		case strings.HasPrefix(k, "lost_"):
			if p.losses == nil {
				p.losses = make(map[string]int64)
			}
			p.losses[strings.TrimPrefix(k, "lost_")]++
		case strings.HasPrefix(k, "canceled_"):
			if p.cancels == nil {
				p.cancels = make(map[string]int64)
			}
			p.cancels[strings.TrimPrefix(k, "canceled_")]++
		}
	}
}

// snapshot renders the aggregate in its wire form.
func (p *portfolioAgg) snapshot() api.PortfolioMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return api.PortfolioMetrics{
		Races:         p.races,
		GapObserved:   p.gapObs,
		GapSum:        p.gapSum,
		GapMax:        p.gapMax,
		ProvedOptimal: p.proved,
		Wins:          copyCounts(p.wins),
		Losses:        copyCounts(p.losses),
		Cancels:       copyCounts(p.cancels),
	}
}

func copyCounts(src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return nil
	}
	dst := make(map[string]int64, len(src))
	for k, v := range src { // map-to-map transfer keyed by the range key
		dst[k] = v
	}
	return dst
}

// New returns a service with the given options; its executor pool runs
// until Close. It panics when durable state under Options.DataDir
// cannot be opened — callers setting DataDir should prefer Open.
func New(opt Options) *Server {
	s, err := Open(opt)
	if err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	return s
}

// Open is New with the durable-state error surfaced: with
// Options.DataDir set it opens (or creates) the disk-backed result
// store and queue WAL under that directory and recovers whatever a
// previous process left there — interrupted batches resume under their
// original job IDs — before any request can be served.
func Open(opt Options) (*Server, error) {
	cache := NewCache(opt.CacheSize)
	store := jobs.ResultStore(jobs.NewShardedStore(opt.ResultShards))
	var q jobs.Queue // nil = the dispatcher's own in-memory queue
	var durable *durableState
	if opt.DataDir != "" {
		var err error
		if durable, err = openDurable(opt.DataDir, opt.Fsync); err != nil {
			return nil, err
		}
		store = durable.store
		q = durable.wal
	}
	s := &Server{
		opt:     opt,
		cache:   cache,
		durable: durable,
		engine: jobs.New(jobs.Options{
			Capacity:         opt.QueueCapacity,
			Workers:          opt.QueueWorkers,
			TTL:              opt.JobTTL,
			MaxRetainedBytes: opt.MaxRetainedBytes,
			Store:            store,
		}),
	}
	s.dispatch = newDispatcher(cache, q, opt)
	if durable != nil {
		s.recoverDurable()
	}
	s.dispatch.startPullers()
	return s, nil
}

// Close stops the job engine: queued jobs finish as canceled without
// reaching the driver, running batches have their contexts canceled so
// the schedulers abort cooperatively, and the executor pool drains.
// The dispatcher's janitor and pullers stop with it. The dispatcher is
// marked shutting down first, so neither the engine canceling its
// running batches nor the pullers resolve or withdraw units — on a
// durable queue they are the state the next process recovers — and the
// durable files close last.
func (s *Server) Close() {
	s.dispatch.shutdown.Store(true)
	s.engine.Close()
	s.dispatch.Close()
	if s.durable != nil {
		s.durable.close()
	}
}

// protocol stamps the version header every v1 response carries.
func protocol(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ProtocolHeader, api.Version)
		h(w, r)
	}
}

// route wraps a handler with the protocol header and the structured
// method_not_allowed error for every other method.
func route(method string, h http.HandlerFunc) http.HandlerFunc {
	return protocol(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, api.CodeMethodNotAllowed, "%s does not allow %s (use %s)", r.URL.Path, r.Method, method)
			return
		}
		h(w, r)
	})
}

// Handler returns the service's HTTP handler: the /v1 surface and a
// structured-JSON fallback for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathCompile, route(http.MethodPost, s.handleCompile))
	mux.HandleFunc(api.PathJobs, route(http.MethodPost, s.handleJobSubmit))
	mux.HandleFunc(api.PathJobs+"/{id}", protocol(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			s.handleJobGet(w, r)
		case http.MethodDelete:
			s.handleJobCancel(w, r)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, api.CodeMethodNotAllowed, "%s does not allow %s (use GET or DELETE)", r.URL.Path, r.Method)
		}
	}))
	mux.HandleFunc(api.PathJobs+"/{id}/results", route(http.MethodGet, s.handleJobResults))
	mux.HandleFunc(api.PathWorkersLease, route(http.MethodPost, s.handleWorkerLease))
	mux.HandleFunc(api.PathWorkers+"/{lease}/results", route(http.MethodPost, s.handleWorkerResults))
	mux.HandleFunc(api.PathMetrics, route(http.MethodGet, s.handleMetrics))
	mux.HandleFunc(api.PathSchedulers, route(http.MethodGet, s.handleSchedulers))
	mux.HandleFunc(api.PathHealth, route(http.MethodGet, s.handleHealth))

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ProtocolHeader, api.Version)
		writeError(w, api.CodeNotFound, "no route %s", r.URL.Path)
	})
	return mux
}

func (ms machineSpec) machine() (*machine.Machine, error) {
	if len(ms.Config) > 0 {
		return machine.ReadConfig(bytes.NewReader(ms.Config))
	}
	if ms.Clusters < 1 {
		return nil, fmt.Errorf("machine needs clusters >= 1 or a config")
	}
	if ms.Unclustered {
		return machine.Unclustered(ms.Clusters), nil
	}
	return machine.Clustered(ms.Clusters), nil
}

// machineSpec gives the wire type the machine-resolution method; the
// api package stays stdlib-only, so the conversion lives here.
type machineSpec api.MachineSpec

// driverOptions maps the wire options onto the driver's. The two
// structs are kept field-for-field identical; this copy is the one
// audited point where the wire form becomes the in-process form.
func driverOptions(o api.Options) driver.Options {
	return driver.Options{
		BudgetRatio:      o.BudgetRatio,
		MaxII:            o.MaxII,
		DisableChains:    o.DisableChains,
		OneDirectionOnly: o.OneDirectionOnly,
		RefinementPasses: o.RefinementPasses,
		LoadSlack:        o.LoadSlack,
	}
}

// wireStats converts a driver scheduling report to the wire form.
func wireStats(st driver.Stats) api.Stats {
	return api.Stats{
		MII:           st.MII,
		II:            st.II,
		IIsTried:      st.IIsTried,
		Placements:    st.Placements,
		Evictions:     st.Evictions,
		OptimalII:     st.OptimalII,
		ProvedOptimal: st.ProvedOptimal,
		Extra:         st.Extra,
	}
}

// wireMetrics converts schedule measurements to the wire form.
func wireMetrics(m schedule.Metrics) api.ScheduleMetrics {
	return api.ScheduleMetrics{
		II:      m.II,
		Len:     m.Len,
		Stages:  m.Stages,
		Trip:    m.Trip,
		Useful:  m.Useful,
		Cycles:  m.Cycles,
		IPC:     m.IPC,
		MovesIn: m.MovesIn,
	}
}

// errorCode classifies a job or request error for the wire.
func errorCode(err error) api.ErrorCode {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeTimeout
	case errors.Is(err, context.Canceled):
		return api.CodeCanceled
	case errors.Is(err, driver.ErrUnknownScheduler):
		return api.CodeUnknownScheduler
	default:
		return api.CodeInternal
	}
}

// Record renders one driver result in the service's wire format
// (Index and Cached are left for the caller). It is shared by the
// handler and the end-to-end tests, which compare streamed responses
// against direct driver.CompileAll output byte-for-byte.
func Record(r driver.Result) api.JobResult {
	rec := api.JobResult{Job: r.Job.String()}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		rec.ErrorCode = errorCode(r.Err)
		return rec
	}
	st := wireStats(r.Stats)
	met := wireMetrics(r.Metrics)
	rec.MII, rec.II = st.MII, st.II
	rec.Stats = &st
	rec.Metrics = &met
	rec.Schedule = RenderSchedule(r.Schedule)
	return rec
}

// RenderSchedule serializes a schedule's placements deterministically:
// one "t=<time> c=<cluster> <class> <name>" line per operation, sorted
// by time, then cluster, then node ID.
func RenderSchedule(s *schedule.Schedule) string {
	g := s.Graph()
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool {
		pi, _ := s.At(ids[i])
		pj, _ := s.At(ids[j])
		if pi.Time != pj.Time {
			return pi.Time < pj.Time
		}
		if pi.Cluster != pj.Cluster {
			return pi.Cluster < pj.Cluster
		}
		return ids[i] < ids[j]
	})
	var sb []byte
	for _, id := range ids {
		p, _ := s.At(id)
		n := g.Node(id)
		sb = fmt.Appendf(sb, "t=%d c=%d %s %s\n", p.Time, p.Cluster, n.Class, n.Name)
	}
	return string(sb)
}

// parseRequest decodes and validates a compile/submit body, returning
// the assembled driver jobs and the effective per-job timeout. On
// failure it writes the structured error itself and returns ok=false.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (req api.CompileRequest, jobList []driver.Job, timeout time.Duration, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, api.CodeInvalidRequest, "bad request body: %v", err)
		return req, nil, 0, false
	}
	if req.Protocol != "" && req.Protocol != api.Version {
		writeError(w, api.CodeInvalidRequest, "protocol %q not supported (this server speaks %s)", req.Protocol, api.Version)
		return req, nil, 0, false
	}
	jobList, err := s.buildJobs(&req)
	if err != nil {
		writeError(w, errorCode4xx(err), "%v", err)
		return req, nil, 0, false
	}
	timeout = s.opt.Timeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	return req, jobList, timeout, true
}

// submit admits a batch to the job engine. The run closure is the one
// execution path both the synchronous and asynchronous surfaces share:
// the dispatcher queues the batch's units for the in-process pullers or
// remote workers, and wire records land in the job's buffer in
// completion order with Index set, so the client cannot tell where the
// batch was compiled.
func (s *Server) submit(jobList []driver.Job, timeout time.Duration, noCache bool) (*jobs.Job, error) {
	run := func(ctx context.Context, emit func(api.JobResult)) {
		s.dispatch.RunBatch(ctx, jobList, timeout, noCache, func(rec api.JobResult) {
			// Jobs drained by a cancellation are not compile failures;
			// counting them would make every canceled batch look like an
			// error storm on the metrics endpoint.
			if rec.Error != "" && ctx.Err() == nil {
				s.jobErrors.Add(1)
			}
			if jobList[rec.Index].Scheduler == "portfolio" && rec.Error == "" && rec.Stats != nil {
				s.portfolio.record(rec.Stats)
			}
			emit(rec)
		})
	}
	j, err := s.engine.Submit(len(jobList), run)
	if err != nil {
		return nil, err
	}
	s.jobs.Add(int64(len(jobList)))
	return j, nil
}

// MaxRetryAfter caps the adaptive queue_full backoff hint, so a deep
// queue of slow batches cannot tell clients to go away for hours.
const MaxRetryAfter = 5 * time.Minute

// adaptiveRetryAfter sizes the queue_full backoff hint from the
// observed state of the queue: the time until a freed slot is roughly
// (depth+1)/workers batches' worth of the smoothed service time. Until
// a first batch has completed (ewma 0) the configured fallback hint is
// used; the result is floored at one second (the header's grammar) and
// capped at MaxRetryAfter.
func adaptiveRetryAfter(depth, workers int, ewma, fallback time.Duration) time.Duration {
	if ewma <= 0 {
		return fallback
	}
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(float64(depth+1) * float64(ewma) / float64(workers))
	if est > MaxRetryAfter {
		est = MaxRetryAfter
	}
	if est < time.Second {
		est = time.Second
	}
	return est
}

// writeQueueFull maps an ErrQueueFull admission failure to the wire:
// HTTP 429, the structured queue_full error carrying the queue
// position a resubmission would occupy, and a Retry-After backoff hint
// in integer seconds (never below 1, per the header's grammar) scaled
// with queue depth × observed EWMA batch service time.
func (s *Server) writeQueueFull(w http.ResponseWriter) {
	m := s.engine.Metrics()
	retry := adaptiveRetryAfter(m.Depth, m.Workers,
		time.Duration(m.EWMAServiceMS*float64(time.Millisecond)), s.opt.retryAfter())
	secs := int((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(api.RetryAfterHeader, strconv.Itoa(secs))
	writeAPIError(w, api.Error{
		Code:     api.CodeQueueFull,
		Message:  fmt.Sprintf("admission queue at capacity (%d queued); retry after %ds", m.Depth, secs),
		QueuePos: m.Depth + 1,
	})
}

// handleJobSubmit is POST /v1/jobs: validate, admit, and answer 202
// with the job resource — the batch compiles in the background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, jobList, timeout, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	j, err := s.submit(jobList, timeout, req.NoCache)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.writeQueueFull(w)
			return
		}
		writeError(w, api.CodeInternal, "%v", err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, j.Snapshot())
}

// writeJobNotFound answers an unknown (or expired) job ID with the
// structured not_found error.
func writeJobNotFound(w http.ResponseWriter, id string) {
	writeError(w, api.CodeNotFound, "no job %q (expired results are garbage-collected after their TTL)", id)
}

// jobFromPath resolves the {id} path segment to a live or retained
// job, writing the structured not_found itself on a miss.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.engine.Get(id)
	if !ok {
		writeJobNotFound(w, id)
		return nil, false
	}
	return j, true
}

// handleJobGet is GET /v1/jobs/{id}: the job's current snapshot.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, j.Snapshot())
}

// handleJobCancel is DELETE /v1/jobs/{id}: request cancellation (a
// no-op on a terminal job) and answer with the resulting snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.engine.Cancel(id)
	if !ok {
		writeJobNotFound(w, id)
		return
	}
	writeJSON(w, j.Snapshot())
}

// handleJobResults is GET /v1/jobs/{id}/results: stream the job's
// results from the ?from= offset, following the live buffer until the
// job is terminal, then close with the summary record. A resumed
// stream's summary still counts the full result set.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, api.CodeInvalidRequest, "bad from offset %q (need a non-negative integer)", q)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	streamJob(r.Context(), w, j, from)
}

// streamJob writes the job's results from the given offset as NDJSON,
// blocking on the live buffer until the terminal state, which it seals
// with the summary record. It returns early (without a summary) only
// when the writer fails or ctx ends — a truncated stream the client
// must treat as resumable, not complete.
func streamJob(ctx context.Context, w http.ResponseWriter, j *jobs.Job, from int) {
	flusher, _ := w.(http.Flusher)
	// Push the response headers out before the first result exists, or
	// a client attached to a deeply queued job sees no bytes at all and
	// trips its first-byte/header timeout on an accepted stream.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		// Grab the change channel before the snapshot: a mutation landing
		// between the two closes the channel we hold, so the next wait
		// returns immediately instead of missing the final transition.
		ch := j.Changed()
		recs, state := j.Results(from)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
		from += len(recs)
		if len(recs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if state.Terminal() {
			if line, err := api.EncodeSummaryLine(j.Summary()); err == nil {
				line = append(line, '\n')
				w.Write(line)
				if flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// handleWorkerLease is POST /v1/workers/lease: hand the calling
// worker a chunk of queued compile units, long-polling within the
// request's wait budget when the queue is empty.
func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req api.LeaseRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, api.CodeInvalidRequest, "bad lease request: %v", err)
		return
	}
	if req.Protocol != "" && req.Protocol != api.Version {
		writeError(w, api.CodeInvalidRequest, "protocol %q not supported (this server speaks %s)", req.Protocol, api.Version)
		return
	}
	if req.Worker == "" {
		writeError(w, api.CodeInvalidRequest, "lease request needs a worker identity")
		return
	}
	lease := s.dispatch.lease(r.Context(), req, time.Duration(req.WaitMS)*time.Millisecond)
	writeJSON(w, lease)
}

// handleWorkerResults is POST /v1/workers/{lease}/results: append unit
// results (each Ack'd exactly once) and heartbeat the lease; an empty
// post is a pure heartbeat. An expired lease answers 410 lease_expired
// — its unresolved units already belong to the queue again.
func (s *Server) handleWorkerResults(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("lease")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req api.WorkResultsRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, api.CodeInvalidRequest, "bad results post: %v", err)
		return
	}
	if req.Protocol != "" && req.Protocol != api.Version {
		writeError(w, api.CodeInvalidRequest, "protocol %q not supported (this server speaks %s)", req.Protocol, api.Version)
		return
	}
	resp, err := s.dispatch.postResults(leaseID, req.Results)
	if err != nil {
		writeError(w, api.CodeLeaseExpired, "lease %s expired; its units were requeued", leaseID)
		return
	}
	writeJSON(w, resp)
}

// handleCompile is POST /v1/compile: the synchronous wrapper over the
// job engine. It submits the batch like /v1/jobs would — the same
// admission control, executor pool and cache path — then streams the
// job's buffer on the open connection. The client hanging up cancels
// the job, so abandoned synchronous work stops burning executors.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, jobList, timeout, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	j, err := s.submit(jobList, timeout, req.NoCache)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.writeQueueFull(w)
			return
		}
		writeError(w, api.CodeInternal, "%v", err)
		return
	}
	// The stream ending for any reason — completion, disconnect
	// surfacing as a write error, context cancellation — must stop the
	// engine job, or abandoned synchronous work would keep burning an
	// executor. Cancel on an already-terminal job is a no-op, so normal
	// completion is safe.
	defer s.engine.Cancel(j.ID())
	// The job's ID is never revealed to a synchronous client, so
	// retaining its results would only let sync bursts evict async
	// jobs' resumable buffers; drop it as soon as it is terminal.
	defer s.engine.Release(j.ID())

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	streamJob(r.Context(), w, j, 0)
}

// CompileRecord resolves one job, whose cache key is key (JobKey),
// through a cache: a content-addressed lookup, then a single-flight
// compile on miss. Only successful results are cached; failures
// (including cancellations) are recomputed on the next request. It is
// shared by the server's in-process pullers and the worker pull loop
// (internal/worker), which runs it against its own local cache — one
// compile path, wherever the unit lands.
func CompileRecord(ctx context.Context, cache *Cache, key string, job driver.Job, batch driver.BatchOptions, noCache bool) api.JobResult {
	compute := func() (any, error) {
		res := driver.Compile(ctx, job, batch)
		if res.Err != nil {
			return nil, res.Err
		}
		return Record(res), nil
	}
	fail := func(err error) api.JobResult {
		return api.JobResult{Job: job.String(), Error: err.Error(), ErrorCode: errorCode(err)}
	}
	if noCache {
		val, err := compute()
		if err != nil {
			return fail(err)
		}
		rec := val.(api.JobResult)
		cache.Add(key, rec)
		return rec
	}
	val, hit, err := cache.Do(ctx, key, compute)
	if err != nil {
		return fail(err)
	}
	rec := val.(api.JobResult)
	rec.Cached = hit
	return rec
}

// buildJobs validates the request and assembles the job cross product.
func (s *Server) buildJobs(req *api.CompileRequest) ([]driver.Job, error) {
	if len(req.Loops) == 0 {
		return nil, fmt.Errorf("no loops")
	}
	if len(req.Machines) == 0 {
		return nil, fmt.Errorf("no machines")
	}
	if len(req.Schedulers) == 0 {
		return nil, fmt.Errorf("no schedulers")
	}
	if n := req.Jobs(); n > MaxJobsPerRequest {
		return nil, fmt.Errorf("%d jobs exceed the per-request limit of %d", n, MaxJobsPerRequest)
	}
	reg := s.opt.registry()
	for _, name := range req.Schedulers {
		if _, err := reg.Get(name); err != nil {
			return nil, err
		}
	}
	loops := make([]*loop.Loop, len(req.Loops))
	for i, text := range req.Loops {
		l, err := loop.ParseString(text)
		if err != nil {
			return nil, fmt.Errorf("loops[%d]: %w", i, err)
		}
		loops[i] = l
	}
	machines := make([]*machine.Machine, len(req.Machines))
	for i, spec := range req.Machines {
		m, err := machineSpec(spec).machine()
		if err != nil {
			return nil, fmt.Errorf("machines[%d]: %w", i, err)
		}
		machines[i] = m
	}
	return driver.Jobs(loops, machines, req.Schedulers, driverOptions(req.Options)), nil
}

// errorCode4xx classifies a request-validation error: anything that is
// not a bad scheduler name is the client's request.
func errorCode4xx(err error) api.ErrorCode {
	if errors.Is(err, driver.ErrUnknownScheduler) {
		return api.CodeUnknownScheduler
	}
	return api.CodeInvalidRequest
}

// Snapshot collects the service counters.
func (s *Server) Snapshot() api.ServerMetrics {
	dm := s.dispatch.Metrics()
	pm := s.portfolio.snapshot()
	m := api.ServerMetrics{
		Requests:  s.requests.Load(),
		Jobs:      s.jobs.Load(),
		JobErrors: s.jobErrors.Load(),
		Cache:     s.cache.Metrics(),
		Queue:     s.engine.Metrics(),
		Dispatch:  &dm,
		Portfolio: &pm,
	}
	if s.durable != nil {
		m.Durability = &api.DurabilityMetrics{
			RecoveredTasks:   s.durable.recoveredTasks,
			RecoveredBuffers: s.durable.recoveredBuffers,
			WALBytes:         s.durable.wal.WALBytes(),
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Snapshot())
}

func (s *Server) handleSchedulers(w http.ResponseWriter, r *http.Request) {
	reg := s.opt.registry()
	entries := make([]api.SchedulerInfo, 0, len(reg.Names()))
	for _, name := range reg.Names() {
		sched, err := reg.Get(name)
		if err != nil {
			continue // raced with a concurrent (test) registration
		}
		entries = append(entries, api.SchedulerInfo{Name: name, Clustered: sched.Clustered()})
	}
	writeJSON(w, entries)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, api.Health{Status: "ok", Protocol: api.Version})
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError sends the structured api error JSON with the status the
// code maps to.
func writeError(w http.ResponseWriter, code api.ErrorCode, format string, args ...any) {
	writeAPIError(w, api.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

// writeAPIError sends a fully assembled structured error (for callers
// that set detail fields beyond code and message).
func writeAPIError(w http.ResponseWriter, e api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Code.HTTPStatus())
	json.NewEncoder(w).Encode(api.ErrorResponse{Error: e})
}
