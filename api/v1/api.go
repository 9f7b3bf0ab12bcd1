// Package api defines version 1 of the compile service's public wire
// contract: the JSON request/response/error types, the NDJSON stream
// framing, the structured error codes and the protocol version
// handshake. It is the single source of truth shared by the server
// (internal/server), the Go SDK (pkg/dmsclient), the dmsclient CLI and
// any external client.
//
// The package deliberately imports nothing but the standard library,
// so importing it pulls in no scheduler code. Conversions between
// these wire types and the in-process driver types live next to the
// server, not here.
//
// # Endpoints
//
//	POST   /v1/jobs              — submit a batch asynchronously; the
//	                               response is the created Job resource
//	GET    /v1/jobs/{id}         — poll a Job's state and counts
//	GET    /v1/jobs/{id}/results — stream the Job's results as NDJSON;
//	                               ?from=<index> resumes mid-stream
//	DELETE /v1/jobs/{id}         — cancel a queued or running Job
//	POST   /v1/compile           — compile a batch synchronously; the
//	                               response is an NDJSON stream (a thin
//	                               wrapper over the job engine)
//	GET    /v1/metrics           — service, cache and queue counters
//	                               (ServerMetrics)
//	GET    /v1/schedulers        — registered back-ends ([]SchedulerInfo)
//	GET    /v1/healthz           — liveness probe (Health)
//
//	POST   /v1/workers/lease           — lease a chunk of queued compile
//	                                     units (worker-pull surface)
//	POST   /v1/workers/{lease}/results — append unit results and
//	                                     heartbeat the lease
//
// # Job lifecycle
//
// POST /v1/jobs runs the same request validation as /v1/compile, then
// admits the batch to a bounded FIFO queue and immediately returns a
// Job: its ID, state, queue position and result counts. States move
// strictly forward:
//
//	queued → running → done
//	queued | running → canceled   (DELETE /v1/jobs/{id})
//	running → failed              (reserved: no current path)
//
// When the queue is full the submission is rejected with HTTP 429 and
// error code queue_full; the response carries a Retry-After header
// (integer seconds) with the server's backoff hint. Results are
// retained for a TTL after the job finishes, so a client may poll and
// re-stream them until garbage collection; afterwards the ID answers
// not_found.
//
// # Stream framing
//
// A /v1/compile or /v1/jobs/{id}/results response body is NDJSON: one
// JSON object per line. Every line but the last is a JobResult,
// emitted in completion order (reorder by Index to recover request
// order). The final line is a terminal summary record of the form
//
//	{"summary":{"jobs":N,"errors":E,"cached":C}}
//
// distinguished from result lines by its single "summary" key.
//
// AppendResultLine writes a result line: the bytes json.Marshal
// produces for the JobResult, plus '\n'. DecodeStreamLine reads any
// stream line in one pass, classifying it as it decodes. It skips
// unknown fields of any JSON type and matches keys byte-exactly
// against the field tags; encoding/json would also accept case-folded
// keys such as "INDEX", which no v1 server writes.
//
// A results stream accepts ?from=<index> to skip the first <index>
// result lines — the resume offset after a dropped connection. The
// terminal summary always counts every result the job produced (the
// full batch for a "done" job, possibly fewer for a canceled or
// failed one), not the lines of one (possibly resumed) stream, so a
// resuming client checks its cumulative line count against the
// summary.
//
// # Worker-pull protocol
//
// A coordinator decomposes every admitted batch into compile units —
// one (loop, machine, scheduler) triple each — and queues them for
// worker processes to pull. POST /v1/workers/lease hands a worker a
// chunk of units under a Lease with a heartbeat TTL; units are routed
// by the canonical content hash of the unit (Hash), so identical loops
// land on the same worker and its warm schedule cache, while an idle
// worker steals unrouted or orphaned units rather than starving. A
// worker sizes MaxUnits itself from its observed per-unit service time
// and the queue depth the previous Lease reported in Remaining, and may
// advertise the schedulers it runs so expensive back-ends route to
// capable workers only. The worker posts completed results — batched
// into one results[] frame per flush window (which also heartbeats the
// lease) — to POST /v1/workers/{lease}/results; a lease whose heartbeat
// deadline
// passes has its unresolved units returned to the queue — a crashed
// worker never loses a job — and any later post under it is rejected
// with lease_expired, which keeps results exactly-once:
//
//	        lease
//	queued ───────▶ leased ──ack (result posted)──▶ resolved
//	   ▲               │
//	   └───────────────┘
//	    expiry (requeue)
//
// Both worker-pull bodies go through the result line's codec:
// AppendLease and DecodeLease for the lease, AppendWorkResults and
// DecodeWorkResults for the results post. The encoders write
// json.Marshal's bytes. DecodeLease skips unknown fields;
// DecodeWorkResults, like every request body, rejects them, and it
// matches keys byte-exactly too, so a case-folded key such as "UNIT"
// is an unknown field.
//
// # Versioning
//
// The protocol version is carried in the Dms-Protocol header of every
// response and may be asserted by clients in CompileRequest.Protocol.
// Within v1, changes are additive only: new response fields may appear
// at any time, so clients MUST ignore unknown fields (every type here
// decodes tolerantly). Request fields are strict — the server rejects
// unknown request fields with invalid_request, which turns a typo'd
// option into an error instead of a silently different compile. A
// breaking change mints /v2 alongside /v1; deprecated routes keep
// answering for one release with a Deprecation header before removal.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Version is the protocol version implemented by this package, as it
// appears in route prefixes, the Dms-Protocol header and
// CompileRequest.Protocol.
const Version = "v1"

// ProtocolHeader is the response header naming the protocol version
// the server spoke ("v1"). Clients verify it during the handshake.
const ProtocolHeader = "Dms-Protocol"

// RetryAfterHeader is the standard backoff hint carried by queue_full
// (HTTP 429) responses: the number of seconds a client should wait
// before resubmitting.
const RetryAfterHeader = "Retry-After"

// Route paths of the v1 surface.
const (
	PathCompile      = "/v1/compile"
	PathJobs         = "/v1/jobs"
	PathMetrics      = "/v1/metrics"
	PathSchedulers   = "/v1/schedulers"
	PathHealth       = "/v1/healthz"
	PathWorkers      = "/v1/workers"
	PathWorkersLease = "/v1/workers/lease"
)

// WorkerResultsPath returns the result-append/heartbeat route of one
// lease.
func WorkerResultsPath(lease string) string {
	return PathWorkers + "/" + lease + "/results"
}

// JobPath returns the polling/cancel route of one job resource.
func JobPath(id string) string { return PathJobs + "/" + id }

// JobResultsPath returns the results-stream route of one job resource,
// with the resume offset (0 streams from the beginning).
func JobResultsPath(id string, from int) string {
	p := PathJobs + "/" + id + "/results"
	if from > 0 {
		p += fmt.Sprintf("?from=%d", from)
	}
	return p
}

// ErrorCode classifies every failure the service reports, both
// request-level (ErrorResponse) and per-job (JobResult.ErrorCode).
type ErrorCode string

const (
	// CodeInvalidRequest: the request body failed validation (bad JSON,
	// unknown fields, empty axes, malformed loop or machine, oversized
	// cross product).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeUnknownScheduler: a scheduler name is not in the registry.
	CodeUnknownScheduler ErrorCode = "unknown_scheduler"
	// CodeTimeout: the per-job scheduling timeout expired. Retryable.
	CodeTimeout ErrorCode = "timeout"
	// CodeCanceled: the job was canceled (client disconnect or server
	// shutdown) before it finished. Retryable.
	CodeCanceled ErrorCode = "canceled"
	// CodeQueueFull: the admission queue is saturated and the request
	// was rejected rather than queued. Retryable; the response carries
	// a Retry-After header with the server's backoff hint.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeNotFound: no route matches the request path, or a job ID is
	// unknown (never existed, or already garbage-collected).
	CodeNotFound ErrorCode = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this method.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeLeaseExpired: a worker posted results under a lease whose
	// heartbeat deadline passed — its unresolved units were already
	// returned to the queue for another worker. Not retryable: the
	// worker drops the lease's remaining work and leases afresh.
	CodeLeaseExpired ErrorCode = "lease_expired"
	// CodeInternal: any other server-side failure.
	CodeInternal ErrorCode = "internal"
)

// Retryable reports whether the identical request may succeed if
// resubmitted unchanged (the failure was a scheduling deadline, a
// cancellation or a momentarily saturated queue, not a property of
// the request itself).
func (c ErrorCode) Retryable() bool {
	return c == CodeTimeout || c == CodeCanceled || c == CodeQueueFull
}

// HTTPStatus is the status the service pairs with a request-level
// error of this code.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeInvalidRequest, CodeUnknownScheduler:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeLeaseExpired:
		return http.StatusGone
	case CodeTimeout:
		return http.StatusRequestTimeout
	case CodeQueueFull:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// Error is a structured service error.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`

	// RetryAfter is the server's backoff hint, decoded from the
	// Retry-After response header by clients (it is not part of the
	// JSON body). Zero when the server sent none.
	RetryAfter time.Duration `json:"-"`

	// QueuePos, on a queue_full error, is the 1-based queue position a
	// resubmission would occupy once a slot frees — the same gauge an
	// asynchronous submitter reads from its Job resource, surfaced here
	// so synchronous /v1/compile clients see their place in line too.
	QueuePos int `json:"queue_pos,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// Options is the scheduler-independent tuning surface, broadcast to
// every job of a request. It mirrors the driver's options; fields a
// back-end does not understand are ignored by it.
type Options struct {
	// BudgetRatio bounds scheduling attempts at BudgetRatio × ops per
	// candidate II (0 = the scheduler's default).
	BudgetRatio int `json:"budget_ratio,omitempty"`
	// MaxII caps the candidate initiation interval (0 = derived bound).
	MaxII int `json:"max_ii,omitempty"`
	// DisableChains and OneDirectionOnly are the DMS ablation switches.
	DisableChains    bool `json:"disable_chains,omitempty"`
	OneDirectionOnly bool `json:"one_direction_only,omitempty"`
	// RefinementPasses and LoadSlack tune the two-phase baseline's
	// partitioner (0 = defaults).
	RefinementPasses int `json:"refinement_passes,omitempty"`
	LoadSlack        int `json:"load_slack,omitempty"`
}

// MachineSpec names one target machine: either a conventional family
// member by cluster count, or a full JSON machine description.
type MachineSpec struct {
	// Clusters picks the conventional clustered machine of that size,
	// or the equivalent unclustered machine with Unclustered set.
	Clusters    int  `json:"clusters,omitempty"`
	Unclustered bool `json:"unclustered,omitempty"`
	// Config, when present, is a full machine description in the
	// server's JSON config format and overrides the other fields.
	Config json.RawMessage `json:"config,omitempty"`
}

// CompileRequest is the JSON body of POST /v1/compile. The job list is
// the (loops × machines × schedulers) cross product in deterministic
// order — loops outermost, schedulers innermost — so job index i maps
// back to axes as
//
//	loop      i / (len(machines) * len(schedulers))
//	machine   (i / len(schedulers)) % len(machines)
//	scheduler i % len(schedulers)
type CompileRequest struct {
	// Protocol asserts the protocol version the client speaks (""
	// or "v1"); any other value is rejected with invalid_request.
	Protocol string `json:"protocol,omitempty"`
	// Loops are loop files in the service's textual loop format.
	Loops []string `json:"loops"`
	// Machines select the targets.
	Machines []MachineSpec `json:"machines"`
	// Schedulers are registry names (see GET /v1/schedulers).
	Schedulers []string `json:"schedulers"`
	// Options is broadcast to every job.
	Options Options `json:"options"`
	// TimeoutMS bounds each job's scheduling time in milliseconds; it
	// can only tighten the server-side timeout, never extend it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cache lookup (results are still stored),
	// for measurements that need a cold compile.
	NoCache bool `json:"no_cache,omitempty"`
}

// Jobs returns the size of the request's job cross product.
func (r *CompileRequest) Jobs() int {
	return len(r.Loops) * len(r.Machines) * len(r.Schedulers)
}

// JobAxes maps a job index back to its (loop, machine, scheduler)
// indices in the request, inverting the cross-product order.
func (r *CompileRequest) JobAxes(index int) (loop, machine, scheduler int) {
	ns, nm := len(r.Schedulers), len(r.Machines)
	return index / (nm * ns), (index / ns) % nm, index % ns
}

// Stats is the normalized scheduling report of one job.
type Stats struct {
	MII        int `json:"mii"`        // lower bound the search started from
	II         int `json:"ii"`         // achieved initiation interval
	IIsTried   int `json:"iis_tried"`  // candidate IIs attempted
	Placements int `json:"placements"` // placement operations across all IIs
	Evictions  int `json:"evictions"`  // operations unscheduled by backtracking
	// OptimalII and ProvedOptimal carry the optimality certificate of
	// back-ends that can produce one (exact proves its own result; the
	// portfolio meta-scheduler records the bound when its exact entrant
	// finishes in time). When ProvedOptimal is true the optimality gap
	// II − OptimalII is also published under Extra["gap"].
	OptimalII     int  `json:"optimal_ii,omitempty"`
	ProvedOptimal bool `json:"proved_optimal,omitempty"`
	// Extra holds scheduler-specific counters under documented keys.
	Extra map[string]int `json:"extra,omitempty"`
}

// ScheduleMetrics are the dynamic cycle/IPC measurements of one
// schedule at the loop's trip count.
type ScheduleMetrics struct {
	II      int     `json:"ii"`
	Len     int     `json:"len"`
	Stages  int     `json:"stages"`
	Trip    int     `json:"trip"`
	Useful  int     `json:"useful"` // useful (non-copy/move) static operations
	Cycles  int64   `json:"cycles"`
	IPC     float64 `json:"ipc"`
	MovesIn int     `json:"moves_in"` // copy+move operations in the final graph
}

// JobResult is one result line of a /v1/compile response stream.
type JobResult struct {
	// Index is the job's position in request order; lines arrive in
	// completion order, so clients reorder by Index.
	Index int `json:"index"`
	// Job names the (loop, machine, scheduler) triple.
	Job string `json:"job"`
	// Error and ErrorCode are set instead of the remaining fields when
	// the job failed. Jobs with a Retryable code may be resubmitted.
	//dms:wireok pre-analyzer name: JobResult.Error (string) and ErrorResponse.Error (object) never share an envelope
	Error     string    `json:"error,omitempty"`
	ErrorCode ErrorCode `json:"error_code,omitempty"`

	MII      int              `json:"mii,omitempty"`
	II       int              `json:"ii,omitempty"`
	Stats    *Stats           `json:"stats,omitempty"`
	Metrics  *ScheduleMetrics `json:"metrics,omitempty"`
	Schedule string           `json:"schedule,omitempty"`

	// Cached reports that the result was served from the cache (or a
	// shared in-flight computation) rather than compiled for this job.
	Cached bool `json:"cached,omitempty"`
}

// Summary is the terminal record of a /v1/compile stream: the stream
// is complete exactly when a summary line has been read.
type Summary struct {
	// Jobs is the number of JobResult lines the stream carried.
	Jobs int `json:"jobs"`
	// Errors counts result lines with a non-empty Error.
	Errors int `json:"errors"`
	// Cached counts result lines served from the cache.
	//dms:wireok pre-analyzer name: Summary.Cached (count) and JobResult.Cached (flag) never share an envelope
	Cached int `json:"cached"`
}

// summaryLine is the wire form of the terminal record.
type summaryLine struct {
	Summary *Summary `json:"summary"`
}

// EncodeSummaryLine renders the terminal stream record for a summary
// (without a trailing newline).
func EncodeSummaryLine(s Summary) ([]byte, error) {
	return json.Marshal(summaryLine{Summary: &s})
}

// JobState is the lifecycle state of an asynchronous job resource.
// States move strictly forward; Terminal reports the absorbing ones.
type JobState string

const (
	// JobQueued: admitted, and none of its compile units has been
	// claimed by a compiler yet (cache hits may already have results).
	// The only state with a meaningful queue position.
	JobQueued JobState = "queued"
	// JobRunning: the batch's units are compiling; results accumulate
	// and can already be streamed.
	JobRunning JobState = "running"
	// JobDone: every job of the batch has a result (success or per-job
	// error); the full result set is retained until the TTL.
	JobDone JobState = "done"
	// JobCanceled: canceled by DELETE /v1/jobs/{id} (or the submitting
	// connection of a synchronous wrapper hanging up). A job canceled
	// while still queued never reached the driver.
	JobCanceled JobState = "canceled"
	// JobFailed: reserved for a failure of the service itself
	// (Job.Error has the cause); no current server path produces it.
	// Per-job scheduling errors do NOT fail the job — they are carried
	// in the result lines.
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is absorbing: no further results
// will be produced and the stream's summary record can be trusted.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCanceled || s == JobFailed
}

// Job is the asynchronous job resource returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type Job struct {
	// ID addresses the job on the /v1/jobs/{id} routes.
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// QueuePos is the 1-based position while queued (1 = next to run);
	// 0 once the job has left the queue.
	QueuePos int `json:"queue_pos,omitempty"`
	// Jobs is the size of the batch: the number of result lines a job
	// that runs to completion carries (the Summary.Jobs of a "done"
	// job). A canceled or failed job may carry fewer — its summary
	// counts the results actually produced.
	Jobs int `json:"jobs"`
	// Done, Errors and Cached count the results produced so far.
	Done   int `json:"done"`
	Errors int `json:"errors,omitempty"`
	//dms:wireok pre-analyzer name: Job.Cached (count) and JobResult.Cached (flag) never share an envelope
	Cached int `json:"cached,omitempty"`
	// Error is the cause of a "failed" job, or the note on a job a
	// restart could not resume.
	//dms:wireok pre-analyzer name: Job.Error (string) and ErrorResponse.Error (object) never share an envelope
	Error string `json:"error,omitempty"`
	// Lifecycle timestamps, milliseconds since the Unix epoch; zero
	// (omitted) until the corresponding transition happened.
	CreatedUnixMS  int64 `json:"created_unix_ms,omitempty"`
	StartedUnixMS  int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS int64 `json:"finished_unix_ms,omitempty"`
}

// SchedulerInfo is one entry of the GET /v1/schedulers response.
type SchedulerInfo struct {
	Name string `json:"name"`
	// Clustered reports the machine family the back-end targets.
	Clustered bool `json:"clustered"`
}

// CacheMetrics is a snapshot of the server's result-cache counters.
type CacheMetrics struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Shared     uint64 `json:"shared"` // joins of an in-flight computation
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Inflight   int    `json:"inflight"`
	MaxEntries int    `json:"max_entries"`
}

// QueueMetrics is a snapshot of the admission queue's gauges and
// counters.
type QueueMetrics struct {
	// Depth is the number of jobs queued right now (admitted, no unit
	// claimed yet); Running the number with units compiling; Retained the finished jobs still held for
	// their result TTL, whose results' encoded NDJSON lines total
	// exactly RetainedBytes.
	Depth         int   `json:"depth"`
	Running       int   `json:"running"`
	Retained      int   `json:"retained"`
	RetainedBytes int64 `json:"retained_bytes"`
	// Capacity is the bound on queued jobs admissions are checked
	// against.
	Capacity int `json:"capacity"`
	// Admitted/Rejected/Completed/Canceled are monotonic counters over
	// the server's lifetime. Rejected counts queue_full responses.
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	// Workers is the size of the in-process puller pool the unit queue
	// drains into; absent on a coordinator, whose workers are listed
	// under DispatchMetrics.Workers.
	Workers int `json:"workers,omitempty"`
	// EWMAServiceMS is the exponentially weighted moving average of
	// completed batches' service times in milliseconds — the signal the
	// adaptive Retry-After hint scales with queue depth. Zero until the
	// first batch completes.
	EWMAServiceMS float64 `json:"ewma_service_ms,omitempty"`
}

// DispatchMetrics is a snapshot of a coordinator's compile-unit
// dispatcher: the worker-pull queue behind /v1/workers/lease.
type DispatchMetrics struct {
	// PendingUnits are queued units awaiting a lease; LeasedUnits are
	// held by workers under the ActiveLeases live leases.
	PendingUnits int `json:"pending_units"`
	LeasedUnits  int `json:"leased_units"`
	ActiveLeases int `json:"active_leases"`
	// Dispatched/Resolved/Requeued are monotonic counters: units put on
	// the queue (including those a restart queued again), units
	// resolved by a posted result, and units returned to the queue by
	// lease expiry.
	Dispatched uint64 `json:"dispatched"`
	Resolved   uint64 `json:"resolved"`
	Requeued   uint64 `json:"requeued"`
	// Workers aggregates per-worker gauges, keyed by the worker
	// identity leases are requested under (absent before any worker
	// has leased).
	//dms:wireok pre-analyzer name: QueueMetrics.Workers (pool size) and DispatchMetrics.Workers (gauge table) never share an envelope
	Workers map[string]WorkerMetrics `json:"workers,omitempty"`
}

// WorkerMetrics is one worker's row in the coordinator's dispatch
// table: throughput and chunk-sizing gauges aggregated from the
// worker's lease requests and result posts.
type WorkerMetrics struct {
	// UnitsPerSec is the worker's resolved-unit throughput since it
	// first leased.
	UnitsPerSec float64 `json:"units_per_sec"`
	// EWMAUnitMS is the per-unit service time the worker self-reported
	// with its latest lease request (0 until its calculator warms up).
	EWMAUnitMS float64 `json:"ewma_unit_ms,omitempty"`
	// CacheHitRate is the fraction of the worker's resolved units that
	// were served from its local schedule cache.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CurrentChunk is the MaxUnits the worker asked for in its latest
	// lease request, after coordinator clamping — the live output of
	// its self-scheduling formula.
	CurrentChunk int `json:"current_chunk"`
	// ResolvedUnits counts results of this worker accepted as
	// authoritative.
	ResolvedUnits uint64 `json:"resolved_units"`
	// Schedulers is the worker's latest capability advertisement
	// (empty = everything).
	Schedulers []string `json:"schedulers,omitempty"`
}

// DurabilityMetrics reports the disk-backed control plane of a
// coordinator started with a data directory.
type DurabilityMetrics struct {
	// RecoveredTasks counts the units recovery queued again when this
	// process started: the pending units rebuilt from the batch
	// records. RecoveredBuffers counts the result buffers rebuilt from
	// disk segments.
	RecoveredTasks   int `json:"recovered_tasks"`
	RecoveredBuffers int `json:"recovered_buffers"`
	// WALBytes is the total size of the live result segments, the
	// server's one durable log.
	WALBytes int64 `json:"wal_bytes"`
}

// PortfolioMetrics aggregates the portfolio meta-scheduler's races
// and the optimality-gap measurements contributed by exact runs.
type PortfolioMetrics struct {
	// Races counts completed portfolio jobs.
	Races int64 `json:"races"`
	// GapObserved counts successful results that carried a proved
	// optimality bound; GapSum and GapMax aggregate the optimality gap
	// (II − optimal II, never negative) over those results.
	GapObserved int64 `json:"gap_observed"`
	GapSum      int64 `json:"gap_sum"`
	GapMax      int64 `json:"gap_max"`
	// ProvedOptimal counts results whose achieved II was proved equal
	// to the optimum (a certificate with gap zero).
	//dms:wireok pre-analyzer name: Stats.ProvedOptimal (flag) and PortfolioMetrics.ProvedOptimal (count) never share an envelope
	ProvedOptimal int64 `json:"proved_optimal"`
	// Wins, Losses and Cancels count entrant fates across races, keyed
	// by entrant name ("dms", "exact", ...).
	Wins    map[string]int64 `json:"wins,omitempty"`
	Losses  map[string]int64 `json:"losses,omitempty"`
	Cancels map[string]int64 `json:"cancels,omitempty"`
}

// ServerMetrics is the GET /v1/metrics payload.
type ServerMetrics struct {
	Requests  int64        `json:"requests"`
	Jobs      int64        `json:"jobs"`
	JobErrors int64        `json:"job_errors"`
	Cache     CacheMetrics `json:"cache"`
	Queue     QueueMetrics `json:"queue"`
	// Dispatch reports the worker-pull dispatcher (present on servers
	// that serve the /v1/workers surface; absent on older servers).
	Dispatch *DispatchMetrics `json:"dispatch,omitempty"`
	// Durability reports the durable control plane (absent on servers
	// running without a data directory).
	Durability *DurabilityMetrics `json:"durability,omitempty"`
	// Portfolio aggregates portfolio races and optimality-gap
	// measurements (absent on older servers).
	Portfolio *PortfolioMetrics `json:"portfolio,omitempty"`
}

// Health is the GET /v1/healthz payload.
type Health struct {
	Status   string `json:"status"` // "ok"
	Protocol string `json:"protocol"`
}

// LeaseRequest is the JSON body of POST /v1/workers/lease: a worker
// asking the coordinator for a chunk of compile units.
type LeaseRequest struct {
	// Protocol asserts the protocol version the worker speaks (""
	// or "v1").
	Protocol string `json:"protocol,omitempty"`
	// Worker is the caller's stable identity — the routing key that
	// affinitizes identical loops onto its warm cache. Required.
	Worker string `json:"worker"`
	// MaxUnits bounds the chunk (0 = server default; the server may
	// cap it lower). Self-scheduling workers size it from their own
	// observed per-unit service time and the Remaining depth of their
	// previous Lease, so fast workers draw large chunks and slow ones
	// small — the coordinator only clamps.
	MaxUnits int `json:"max_units,omitempty"`
	// WaitMS long-polls: with no work queued the server holds the
	// request up to this long before answering with an empty lease
	// (0 = answer immediately; the server caps the wait).
	WaitMS int `json:"wait_ms,omitempty"`
	// Schedulers advertises the scheduler names this worker can run.
	// The coordinator routes units of an advertised-anywhere scheduler
	// only to workers advertising it (falling back to anyone when no
	// live worker does). Empty advertises everything — the
	// pre-advertisement behavior.
	Schedulers []string `json:"schedulers,omitempty"`
	// EWMAUnitMS self-reports the worker's smoothed per-unit service
	// time in milliseconds (0 = not yet warmed up); the coordinator
	// republishes it on the per-worker dispatch gauges.
	EWMAUnitMS float64 `json:"ewma_unit_ms,omitempty"`
}

// WorkUnit is one leasable compile unit: a single (loop, machine,
// scheduler) triple of some batch, self-contained so a worker needs no
// other context to compile it.
type WorkUnit struct {
	// ID addresses the unit in result posts; it is unique while the
	// unit is live and opaque to workers.
	ID string `json:"id"`
	// Hash is the unit's canonical content hash — identical to the
	// coordinator's schedule-cache key, so workers can key their own
	// caches compatibly.
	Hash string `json:"hash"`
	// Loop is the canonical loop text.
	Loop string `json:"loop"`
	// Machine carries the full machine description.
	Machine MachineSpec `json:"machine"`
	// Scheduler is the registry name to schedule with.
	Scheduler string `json:"scheduler"`
	// Options tune the scheduler.
	Options Options `json:"options"`
	// TimeoutMS bounds the unit's scheduling time (0 = none).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache asks the worker to skip its cache lookup (results are
	// still stored), mirroring CompileRequest.NoCache.
	NoCache bool `json:"no_cache,omitempty"`
}

// Lease is the response of POST /v1/workers/lease. An empty lease
// (ID "") means no work was available within the wait budget; the
// worker re-polls after PollMS.
type Lease struct {
	ID    string     `json:"id,omitempty"`
	Units []WorkUnit `json:"units,omitempty"`
	// TTLMS is the heartbeat deadline: a lease that posts no results
	// (and no empty heartbeat) for this long has its unresolved units
	// returned to the queue.
	TTLMS int `json:"ttl_ms,omitempty"`
	// PollMS is the coordinator's re-poll hint for an empty lease.
	PollMS int `json:"poll_ms,omitempty"`
	// Remaining is the queue depth left after this lease was carved
	// out — the self-scheduling signal a worker's next MaxUnits request
	// factors against, reported here so sizing needs no second call.
	Remaining int `json:"remaining,omitempty"`
}

// UnitResult pairs one leased unit with its compile outcome. The
// result's Index is assigned by the coordinator; workers leave it 0.
type UnitResult struct {
	Unit   string    `json:"unit"`
	Result JobResult `json:"result"`
}

// WorkResultsRequest is the JSON body of POST /v1/workers/{lease}/results.
// An empty Results slice is a pure heartbeat.
type WorkResultsRequest struct {
	Protocol string       `json:"protocol,omitempty"`
	Results  []UnitResult `json:"results"`
}

// WorkResultsResponse reports what the coordinator did with a result
// post.
type WorkResultsResponse struct {
	// Acked counts results accepted as the authoritative resolution of
	// their unit. A posted result not counted here raced a lease expiry
	// — another worker owns that unit now — or named a unit its lease
	// does not hold, and was discarded.
	Acked int `json:"acked"`
	// Canceled lists still-leased units whose batch has been canceled;
	// the worker should skip compiling them and post a canceled result
	// to release them cheaply.
	//dms:wireok pre-analyzer name: WorkResultsResponse.Canceled (ID list) and QueueMetrics.Canceled (count) never share an envelope
	Canceled []string `json:"canceled,omitempty"`
}

// FormatExtra renders a Stats.Extra counter map as "k1=v1 k2=v2" with
// keys sorted, so CLI and log output is byte-deterministic across
// runs. It returns "" for an empty map.
func FormatExtra(extra map[string]int) string {
	if len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%s=%d", k, extra[k])
	}
	return string(b)
}
