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
// path and one queue: the internal/jobs engine registers it as a job,
// and the dispatcher splits it into compile units on its unit queue.
// In-process pullers (standalone) or worker processes
// (Options.Distribute) lease the units and resolve each through the
// same queue Ack. With Options.DataDir each batch's result segment
// records its request before the submit answers, so any interrupted
// batch resumes after a restart (see durable.go). /v1/compile is a
// thin wrapper that submits a job and streams its buffer until the
// terminal state. The engine bounds the jobs queued — admitted, with no
// unit claimed yet; past that bound both surfaces reject with a
// structured 429 queue_full error and a Retry-After hint instead of
// queueing without bound. Finished jobs retain their results for a
// TTL, so a dropped results connection re-attaches with ?from= and
// replays the buffer instead of recomputing.
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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/ddg"
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
	// Parallelism is the size of a standalone server's in-process
	// puller pool (0 = 2 × GOMAXPROCS). One batch holds at most half
	// of it, rounded up, so side-by-side batches share the pool. A
	// coordinator (Distribute) starts no pullers.
	Parallelism int
	// QueueCapacity bounds the queued jobs — admitted, with no unit
	// claimed yet; a submission past it is rejected with 429
	// queue_full (0 = jobs.DefaultCapacity).
	QueueCapacity int
	// JobTTL is how long a finished job's results are retained for
	// polling and resumed streams (0 = jobs.DefaultTTL).
	JobTTL time.Duration
	// MaxRetainedBytes bounds the total encoded size of retained
	// results; above it the oldest finished jobs are collected before
	// their TTL (0 = jobs.DefaultMaxRetainedBytes).
	MaxRetainedBytes int64
	// RetryAfter is the backoff hint sent with queue_full responses
	// before the server has observed any batch service times
	// (0 = DefaultRetryAfter). Once batches have completed, the hint
	// scales adaptively: queue depth × EWMA batch service time over the
	// running batches (see adaptiveRetryAfter).
	RetryAfter time.Duration
	// Distribute starts no in-process pullers: the server becomes a
	// coordinator, and worker processes (internal/worker, dmsserve -role
	// worker) lease its compile units over /v1/workers. The
	// client-facing API is identical either way.
	Distribute bool
	// LeaseTTL is the worker-lease heartbeat deadline: a lease that
	// posts nothing for this long has its unresolved units requeued
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// DataDir roots the durable control-plane state: one segment per
	// job holding its request, results and any cancellation. A server
	// opened over a previous process's DataDir recovers that state (see
	// Open and recoverDurable). "" keeps results in memory — exactly
	// the pre-durability behavior. The unit queue is always in memory.
	DataDir string
	// Fsync syncs every segment append (a batch's request before its
	// 202) to stable storage before acknowledging it; off, appends ride
	// the OS page cache (surviving process crashes but not machine
	// crashes). Meaningful only with DataDir.
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

// Server is the compile service. Create one with Open; it is safe for
// concurrent use.
type Server struct {
	opt      Options
	cache    *Cache
	engine   *jobs.Engine
	dispatch *dispatcher
	durable  *durableState // nil without Options.DataDir

	requests atomic.Int64
	jobs     atomic.Int64
}

// Open returns a service with the given options; its puller pool runs
// until Close. With Options.DataDir set it opens (or creates) the
// disk-backed result store under that directory and recovers whatever
// a previous process left there — interrupted batches resume under
// their original job IDs — before any request can be served.
func Open(opt Options) (*Server, error) {
	cache := NewCache(opt.CacheSize)
	var store jobs.ResultStore // nil = the engine's in-memory store
	var durable *durableState
	if opt.DataDir != "" {
		ds, err := jobs.NewDiskStore(filepath.Join(opt.DataDir, "results"), opt.Fsync)
		if err != nil {
			return nil, fmt.Errorf("server: open result store: %w", err)
		}
		durable, store = &durableState{store: ds}, ds
	}
	s := &Server{
		opt:     opt,
		cache:   cache,
		durable: durable,
		engine: jobs.New(jobs.Options{
			Capacity:         opt.QueueCapacity,
			TTL:              opt.JobTTL,
			MaxRetainedBytes: opt.MaxRetainedBytes,
			Store:            store,
		}),
	}
	s.dispatch = newDispatcher(cache, durable, opt)
	if durable != nil {
		s.recoverDurable()
	}
	s.dispatch.startPullers()
	return s, nil
}

// Close stops the job engine: every live job finishes as canceled and
// its context is canceled, so the schedulers abort cooperatively. The
// dispatcher's janitor, pullers and batches still being queued stop
// with it. The dispatcher is marked shutting down first, so neither
// the engine canceling its jobs nor the pullers resolve or withdraw
// units — they are the state the next process recovers — and the
// durable files close last.
func (s *Server) Close() {
	s.dispatch.shutdown.Store(true)
	s.engine.Close()
	s.dispatch.Close()
	if s.durable != nil {
		s.durable.store.Close()
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
	build := machine.Clustered
	if ms.Unclustered {
		build = machine.Unclustered
	}
	m := build(ms.Clusters)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
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
	type row struct {
		id int
		p  schedule.Placement
	}
	rows := make([]row, 0, g.NumNodes())
	g.Nodes(func(n ddg.Node) {
		p, _ := s.At(n.ID)
		rows = append(rows, row{n.ID, p})
	})
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(a.p.Time, b.p.Time); c != 0 {
			return c
		}
		if c := cmp.Compare(a.p.Cluster, b.p.Cluster); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	buf := make([]byte, 0, 32*len(rows))
	for _, r := range rows {
		n := g.Node(r.id)
		buf = append(buf, "t="...)
		buf = strconv.AppendInt(buf, int64(r.p.Time), 10)
		buf = append(buf, " c="...)
		buf = strconv.AppendInt(buf, int64(r.p.Cluster), 10)
		buf = append(buf, ' ')
		buf = append(buf, n.Class.String()...)
		buf = append(buf, ' ')
		buf = append(buf, n.Name...)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// batch is one validated compile/submit request, ready to admit.
type batch struct {
	jobs    []driver.Job
	timeout time.Duration // effective per-job timeout
	noCache bool
	record  []byte // the durable batch record; nil without DataDir
}

// decodeBody decodes a JSON request body into v under the request size
// bound, refusing unknown fields and any protocol other than this
// server's; protocol points at v's Protocol field. A decode failure's
// message starts with what. On failure it writes the structured error
// itself and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any, protocol *string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, api.CodeInvalidRequest, "%s: %v", what, err)
		return false
	}
	return speaksProtocol(w, *protocol)
}

// speaksProtocol accepts a body's protocol assertion: "" or this
// server's version. Otherwise it writes the structured error itself and
// returns false.
func speaksProtocol(w http.ResponseWriter, protocol string) bool {
	if protocol != "" && protocol != api.Version {
		writeError(w, api.CodeInvalidRequest, "protocol %q not supported (this server speaks %s)", protocol, api.Version)
		return false
	}
	return true
}

// parseRequest decodes and validates a compile/submit body into a
// batch. On failure it writes the structured error itself and returns
// ok=false.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (b batch, ok bool) {
	var req api.CompileRequest
	if !decodeBody(w, r, "bad request body", &req, &req.Protocol) {
		return b, false
	}
	jobList, err := s.buildJobs(&req)
	if err != nil {
		writeError(w, errorCode4xx(err), "%v", err)
		return b, false
	}
	b = batch{jobs: jobList, timeout: s.timeoutFor(&req), noCache: req.NoCache}
	if s.durable != nil {
		if b.record, err = encodeBatchRecord(req, len(jobList), b.timeout); err != nil {
			writeError(w, api.CodeInvalidRequest, "%v", err)
			return b, false
		}
	}
	return b, true
}

// timeoutFor returns a request's effective per-job timeout: the
// server's, tightened by the request's own.
func (s *Server) timeoutFor(req *api.CompileRequest) time.Duration {
	timeout := s.opt.Timeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	return timeout
}

// submit admits a batch to the job engine and hands it to the
// dispatcher, the one execution path both the synchronous and
// asynchronous surfaces share: its units queue for the in-process
// pullers or remote workers, and wire records land in the job's buffer
// in completion order with Index set, so the client cannot tell where
// the batch was compiled. A durable server writes the batch record to
// the job's segment first: a batch is recoverable before it is queued
// or answered, and one whose record cannot be written is refused.
func (s *Server) submit(b batch) (*jobs.Job, error) {
	j, err := s.engine.Submit(len(b.jobs))
	if err != nil {
		return nil, err
	}
	if b.record != nil {
		if err := s.durable.store.SetMeta(j.ID(), b.record); err != nil {
			s.engine.Release(j.ID())
			s.engine.Cancel(j.ID())
			return nil, fmt.Errorf("batch record not written: %w", err)
		}
	}
	s.jobs.Add(int64(len(b.jobs)))
	s.dispatch.submit(j, b.jobs, b.timeout, b.noCache)
	return j, nil
}

// MaxRetryAfter caps the adaptive queue_full backoff hint, so a deep
// queue of slow batches cannot tell clients to go away for hours.
const MaxRetryAfter = 5 * time.Minute

// adaptiveRetryAfter sizes the queue_full backoff hint from the
// observed state of the queue: the time until a freed slot is roughly
// (depth+1) batches' worth of the smoothed service time, shared over
// the running batches. Until a first batch has completed (ewma 0) the
// configured fallback hint is used; the result is floored at one
// second (the header's grammar) and capped at MaxRetryAfter.
func adaptiveRetryAfter(depth, running int, ewma, fallback time.Duration) time.Duration {
	if ewma <= 0 {
		return fallback
	}
	if running < 1 {
		running = 1
	}
	est := time.Duration(float64(depth+1) * float64(ewma) / float64(running))
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
	retry := adaptiveRetryAfter(m.Depth, m.Running,
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
	if j, ok := s.admit(w, r); ok {
		writeJSONStatus(w, http.StatusAccepted, j.Snapshot())
	}
}

// admit parses a compile/submit body and submits its batch, writing
// the structured error itself when either fails.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	s.requests.Add(1)
	b, ok := s.parseRequest(w, r)
	if !ok {
		return nil, false
	}
	j, err := s.submit(b)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.writeQueueFull(w)
	case err != nil:
		writeError(w, api.CodeInternal, "%v", err)
	}
	return j, err == nil
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
	for {
		// Grab the change channel before the snapshot: a mutation landing
		// between the two closes the channel we hold, so the next wait
		// returns immediately instead of missing the final transition.
		ch := j.Changed()
		lines, state := j.Results(from)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		from += len(lines)
		if len(lines) > 0 && flusher != nil {
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
	var req api.LeaseRequest
	if !decodeBody(w, r, "bad lease request", &req, &req.Protocol) {
		return
	}
	if req.Worker == "" {
		writeError(w, api.CodeInvalidRequest, "lease request needs a worker identity")
		return
	}
	lease := s.dispatch.lease(r.Context(), req, time.Duration(req.WaitMS)*time.Millisecond)
	// The lease's bytes are json.Marshal's, written without reflection.
	body, err := api.AppendLease(nil, &lease)
	if err != nil {
		// Unreachable: the coordinator rendered every config it leases.
		writeError(w, api.CodeInternal, "lease %s did not encode: %v", lease.ID, err)
		return
	}
	body = append(body, '\n')
	// A lease is written in one Write but is often over the 2 KiB the
	// server buffers before it chunks: a declared length lets the
	// worker presize its read.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleWorkerResults is POST /v1/workers/{lease}/results: append unit
// results (each Ack'd exactly once) and heartbeat the lease; an empty
// post is a pure heartbeat. An expired lease answers 410 lease_expired
// — its unresolved units already belong to the queue again. The body,
// which carries every distributed result, is read whole into a buffer
// presized from its Content-Length and decoded by
// api.DecodeWorkResults: as strict as decodeBody, without
// reflection.
func (s *Server) handleWorkerResults(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("lease")
	body, err := api.ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength)
	var req *api.WorkResultsRequest
	if err == nil {
		req, err = api.DecodeWorkResults(body)
	}
	if err != nil {
		writeError(w, api.CodeInvalidRequest, "bad results post: %v", err)
		return
	}
	if !speaksProtocol(w, req.Protocol) {
		return
	}
	resp, err := s.dispatch.postResults(leaseID, req.Results, false)
	if err != nil {
		writeError(w, api.CodeLeaseExpired, "lease %s expired; its units were requeued", leaseID)
		return
	}
	writeJSON(w, resp)
}

// handleCompile is POST /v1/compile: the synchronous wrapper over the
// job engine. It submits the batch like /v1/jobs would — the same
// admission control, unit queue and cache path — then streams the
// job's buffer on the open connection. The client hanging up cancels
// the job, so abandoned synchronous work stops burning pullers.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.admit(w, r)
	if !ok {
		return
	}
	// The stream ending for any reason — completion, disconnect
	// surfacing as a write error, context cancellation — must stop the
	// engine job, or abandoned synchronous work would keep burning
	// pullers. Cancel on an already-terminal job is a no-op, so normal
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
	pm := s.dispatch.portfolio.snapshot()
	qm := s.engine.Metrics()
	qm.Workers = s.dispatch.pullers // 0, so absent, on a coordinator
	m := api.ServerMetrics{
		Requests:  s.requests.Load(),
		Jobs:      s.jobs.Load(),
		JobErrors: s.dispatch.jobErrors.Load(),
		Cache:     s.cache.Metrics(),
		Queue:     qm,
		Dispatch:  &dm,
		Portfolio: &pm,
	}
	if s.durable != nil {
		m.Durability = &api.DurabilityMetrics{
			RecoveredTasks:   s.durable.recoveredTasks,
			RecoveredBuffers: s.durable.recoveredBuffers,
			WALBytes:         s.durable.store.SegmentBytes(),
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
