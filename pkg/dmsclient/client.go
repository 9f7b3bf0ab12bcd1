// Package dmsclient is the Go SDK for the compile service: a typed
// client over the repro/api/v1 wire contract with a streaming result
// iterator, index-order reassembly, automatic retry of canceled and
// timed-out jobs, and first-class support for the asynchronous job
// resource API — submit, poll, resumable result streams, cancel.
//
// A Client wraps one service base URL and an http.Client whose
// transport pools connections, so successive requests (including the
// single-job resubmissions the retry path issues) reuse TCP
// connections:
//
//	cli := dmsclient.New("http://localhost:8080")
//	for rec, err := range cli.Compile(ctx, req) {
//		if err != nil {
//			return err
//		}
//		fmt.Println(rec.Index, rec.Job, rec.II)
//	}
//
// The asynchronous path decouples submission from result transfer:
//
//	job, err := cli.Submit(ctx, req)      // admission-controlled, 202
//	job, err = cli.Wait(ctx, job.ID)      // poll to a terminal state
//	recs, sum, err := cli.ResultsAll(ctx, job.ID, job.Jobs)
//
// Submit honors the server's admission control: a 429 queue_full
// response is retried after the server-sent Retry-After hint (falling
// back to exponential backoff when absent). Results and ResultsAll
// survive dropped connections by re-attaching to the job's retained
// result buffer with the ?from= resume offset, so a mid-stream
// disconnect costs one round trip, not a recompute. All retry waiting
// is bounded by a per-call budget (WithMaxRetryWait); when the budget
// runs out, the returned error says how long the client waited.
//
// Results arrive in completion order; CompileAll and ResultsAll
// reassemble them in request (index) order. Jobs that fail with a
// retryable code (timeout, canceled) on the synchronous path are
// resubmitted as single-job requests — with per-job backoff that also
// prefers a server-sent Retry-After — before their result is
// surfaced, so a transient deadline on a loaded server degrades into
// latency, not an error row.
//
// Every response is checked against the protocol version handshake:
// the client announces "v1" in the request and verifies the server's
// Dms-Protocol header before trusting the payload.
package dmsclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"time"

	api "repro/api/v1"
)

// maxStreamLine bounds one NDJSON line of a compile response (rendered
// schedules grow with loop size, but 4 MiB is far beyond any real one).
const maxStreamLine = 4 << 20

// DefaultMaxRetryWait bounds the cumulative backoff a single SDK call
// spends waiting between retries when WithMaxRetryWait is unset.
const DefaultMaxRetryWait = 30 * time.Second

// Client speaks protocol v1 to one compile service. Create it with
// New; it is safe for concurrent use.
type Client struct {
	base         string
	hc           *http.Client
	retries      int
	backoff      time.Duration
	maxRetryWait time.Duration
	poll         time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transport, timeout or middleware).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times a retryable failure — a job that
// timed out or was canceled, a dropped results connection — is retried
// before it is surfaced. 0 disables retries; the default is 2.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the base backoff before the first retry; it doubles
// on every further attempt. A server-sent Retry-After hint takes
// precedence over the computed backoff. The default is 100 ms.
func WithBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// WithMaxRetryWait caps the cumulative time one SDK call may spend
// sleeping between retries (exponential backoff and Retry-After hints
// combined). When the budget runs out, calls that fail outright —
// Submit, Results, a queue_full resubmission — return an error
// stating how long the client waited; the synchronous per-job retry
// path instead stops retrying and surfaces the job's original
// retryable failure row. A value <= 0 selects DefaultMaxRetryWait,
// like the package's other zero-means-default knobs; to disable retry
// waiting entirely, use WithRetries(0) for result retries and a small
// positive budget for submissions.
func WithMaxRetryWait(d time.Duration) Option {
	return func(c *Client) { c.maxRetryWait = d }
}

// maxWait resolves the effective retry-wait budget.
func (c *Client) maxWait() time.Duration {
	if c.maxRetryWait > 0 {
		return c.maxRetryWait
	}
	return DefaultMaxRetryWait
}

// WithPollInterval sets how often Wait polls a job's state. The
// default is 100 ms.
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) { c.poll = d }
}

// New returns a client for the service at baseURL (scheme and host,
// e.g. "http://localhost:8080"; any trailing slash is trimmed).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		hc:           &http.Client{},
		retries:      2,
		backoff:      100 * time.Millisecond,
		maxRetryWait: DefaultMaxRetryWait,
		poll:         100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryBudget meters the cumulative backoff of one SDK call.
type retryBudget struct {
	c      *Client
	waited time.Duration
}

func (c *Client) newBudget() *retryBudget { return &retryBudget{c: c} }

// minRetryWait floors every budgeted backoff: a zero or negative wait
// (WithBackoff(0), a missing Retry-After hint, shift overflow) must
// still consume budget, or an uncapped retry loop against a saturated
// server would spin hot forever.
const minRetryWait = 25 * time.Millisecond

// sleep waits before retry number attempt (0-based), preferring the
// server-sent Retry-After hint carried by lastErr over the client's
// exponential backoff. It fails once the cumulative wait would exceed
// the budget, with an error that reports the time already spent
// waiting and wraps lastErr.
func (b *retryBudget) sleep(ctx context.Context, attempt int, lastErr error) error {
	d := b.c.backoff << attempt
	var apiErr *api.Error
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
		d = apiErr.RetryAfter
	}
	if d < minRetryWait {
		d = minRetryWait
	}
	if limit := b.c.maxWait(); b.waited+d > limit {
		return fmt.Errorf("dmsclient: retry budget exhausted (waited %v of %v): %w",
			b.waited.Round(time.Millisecond), limit, lastErr)
	}
	if !sleepCtx(ctx, d) {
		return ctx.Err()
	}
	b.waited += d
	return nil
}

// checkProtocol enforces the version handshake on a response.
func checkProtocol(resp *http.Response) error {
	if got := resp.Header.Get(api.ProtocolHeader); got != api.Version {
		return fmt.Errorf("dmsclient: server spoke protocol %q, want %q (is this a %s service?)",
			got, api.Version, api.Version)
	}
	return nil
}

// decodeError turns a non-2xx response into the *api.Error it carries
// (or a generic error when the body is not the structured form),
// attaching the Retry-After backoff hint when the server sent one.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error.Code != "" {
		if secs, err := strconv.Atoi(resp.Header.Get(api.RetryAfterHeader)); err == nil && secs > 0 {
			er.Error.RetryAfter = time.Duration(secs) * time.Second
		}
		return &er.Error
	}
	return fmt.Errorf("dmsclient: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// do issues one request and verifies status and protocol handshake.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if err := checkProtocol(resp); err != nil {
		resp.Body.Close()
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// getJSON fetches path and decodes the body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health probes GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.getJSON(ctx, api.PathHealth, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Schedulers lists the server's registered back-ends.
func (c *Client) Schedulers(ctx context.Context) ([]api.SchedulerInfo, error) {
	var s []api.SchedulerInfo
	if err := c.getJSON(ctx, api.PathSchedulers, &s); err != nil {
		return nil, err
	}
	return s, nil
}

// Metrics fetches the service, cache and queue counters.
func (c *Client) Metrics(ctx context.Context) (*api.ServerMetrics, error) {
	var m api.ServerMetrics
	if err := c.getJSON(ctx, api.PathMetrics, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Submit posts req to POST /v1/jobs and returns the created job
// resource. A queue_full rejection is retried after the server-sent
// Retry-After hint (or the exponential backoff when absent) until the
// retry-wait budget runs out.
func (c *Client) Submit(ctx context.Context, req api.CompileRequest) (*api.Job, error) {
	if req.Protocol == "" {
		req.Protocol = api.Version
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	budget := c.newBudget()
	for attempt := 0; ; attempt++ {
		resp, err := c.do(ctx, http.MethodPost, api.PathJobs, bytes.NewReader(body))
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Code == api.CodeQueueFull {
				if berr := budget.sleep(ctx, attempt, err); berr != nil {
					return nil, berr
				}
				continue
			}
			return nil, err
		}
		var job api.Job
		decErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if decErr != nil {
			return nil, decErr
		}
		return &job, nil
	}
}

// Job polls GET /v1/jobs/{id} for the job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	var j api.Job
	if err := c.getJSON(ctx, api.JobPath(id), &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel requests cancellation via DELETE /v1/jobs/{id} and returns
// the resulting snapshot (idempotent on terminal jobs).
func (c *Client) Cancel(ctx context.Context, id string) (*api.Job, error) {
	resp, err := c.do(ctx, http.MethodDelete, api.JobPath(id), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var j api.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Wait polls the job until it reaches a terminal state (or ctx ends),
// returning the terminal snapshot.
func (c *Client) Wait(ctx context.Context, id string) (*api.Job, error) {
	poll := c.poll
	if poll <= 0 {
		poll = minRetryWait // a zero interval must not hot-spin the GET loop
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		if !sleepCtx(ctx, poll) {
			return nil, ctx.Err()
		}
	}
}

// Results streams the job's result lines in completion order,
// re-attaching with the ?from= resume offset when the connection
// drops mid-stream, until the terminal summary record has been read.
// The cumulative line count is verified against the summary. A
// transport failure that outlasts the retry budget (or the configured
// attempts without progress) is yielded once as a non-nil error.
func (c *Client) Results(ctx context.Context, id string) iter.Seq2[api.JobResult, error] {
	return func(yield func(api.JobResult, error) bool) {
		from := 0
		budget := c.newBudget()
		attempt := 0
		var lastErr error
		for {
			if attempt > 0 {
				if attempt > c.retries {
					yield(api.JobResult{}, fmt.Errorf("dmsclient: results stream for job %s failed after %d attempts: %w", id, attempt, lastErr))
					return
				}
				if berr := budget.sleep(ctx, attempt-1, lastErr); berr != nil {
					yield(api.JobResult{}, berr)
					return
				}
			}
			resp, err := c.do(ctx, http.MethodGet, api.JobResultsPath(id, from), nil)
			if err != nil {
				var apiErr *api.Error
				if errors.As(err, &apiErr) && !apiErr.Code.Retryable() {
					// 404 after TTL expiry, invalid offset, ...: final.
					yield(api.JobResult{}, err)
					return
				}
				if ctx.Err() != nil {
					yield(api.JobResult{}, ctx.Err())
					return
				}
				attempt++
				lastErr = err
				continue
			}
			start := from
			_, done, err := readResults(resp.Body, &from, func(rec api.JobResult) bool { return yield(rec, nil) })
			resp.Body.Close()
			if done {
				if err != nil {
					yield(api.JobResult{}, err)
				}
				return
			}
			// Dropped mid-stream: any progress re-arms the attempt
			// counter — the offset advanced, so this is a fresh resume,
			// not a repeat of a failing one.
			if from > start {
				attempt = 0
			}
			attempt++
			lastErr = fmt.Errorf("dmsclient: results stream for job %s dropped at offset %d", id, from)
		}
	}
}

// readResults reads result lines from one NDJSON stream, counting
// each record in *n (on entry, the lines earlier streams of the same
// job carried) and passing it to fn. The bool reports that the stream
// is finished: the summary record arrived and matches *n (returned),
// fn returned false, or a line was malformed or the summary miscounted
// (the error). false means the stream ended first; the error is then
// the read error, if any.
func readResults(r io.Reader, n *int, fn func(api.JobResult) bool) (*api.Summary, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, sum, err := api.DecodeStreamLine(line)
		if err != nil {
			return nil, true, err
		}
		if sum != nil {
			if sum.Jobs != *n {
				return nil, true, fmt.Errorf("dmsclient: stream carried %d results but the summary counts %d", *n, sum.Jobs)
			}
			return sum, true, nil
		}
		*n++
		if !fn(*rec) {
			return nil, true, nil
		}
	}
	return nil, false, sc.Err()
}

// streamOnce submits req and invokes fn for every result line, in
// completion order, without any retry handling. It returns the
// terminal summary record, erroring if the stream ends without one
// (truncated response) or carries a different number of results than
// the summary claims.
func (c *Client) streamOnce(ctx context.Context, req api.CompileRequest, fn func(api.JobResult) bool) (*api.Summary, error) {
	if req.Protocol == "" {
		req.Protocol = api.Version
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, api.PathCompile, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	lines := 0
	sum, done, err := readResults(resp.Body, &lines, fn)
	if done {
		return sum, err
	}
	if err != nil {
		return nil, fmt.Errorf("dmsclient: reading stream: %w", err)
	}
	return nil, fmt.Errorf("dmsclient: stream ended after %d results without a summary record", lines)
}

// Compile submits req synchronously and returns the results as a
// streaming iterator in completion order (reorder by Index for request
// order; CompileAll does this for you). A queue_full admission
// rejection is retried after the server's Retry-After hint, like
// Submit. Jobs whose failure is retryable are resubmitted up to the
// configured retry budget before being yielded, so a yielded
// timeout/cancellation is final. Any other transport or protocol
// failure is yielded once as a non-nil error and ends the stream.
func (c *Client) Compile(ctx context.Context, req api.CompileRequest) iter.Seq2[api.JobResult, error] {
	return func(yield func(api.JobResult, error) bool) {
		stopped := false
		budget := c.newBudget()
		for attempt := 0; ; attempt++ {
			yielded := 0
			_, err := c.streamOnce(ctx, req, func(rec api.JobResult) bool {
				yielded++
				// The index bound guards retryJob's axis lookup against a
				// non-conforming server: an out-of-range index is passed
				// through for CompileAll (or the caller) to reject, never
				// used to index the request.
				if rec.ErrorCode.Retryable() && c.retries > 0 && ctx.Err() == nil &&
					rec.Index >= 0 && rec.Index < req.Jobs() {
					rec = c.retryJob(ctx, &req, rec, budget)
				}
				if !yield(rec, nil) {
					stopped = true
					return false
				}
				return true
			})
			if err == nil || stopped {
				return
			}
			// Admission control happens before any result line, so a
			// queue_full with nothing yielded is safe to resubmit whole.
			var apiErr *api.Error
			if yielded == 0 && errors.As(err, &apiErr) && apiErr.Code == api.CodeQueueFull && ctx.Err() == nil {
				if berr := budget.sleep(ctx, attempt, err); berr != nil {
					yield(api.JobResult{}, berr)
					return
				}
				continue
			}
			yield(api.JobResult{}, err)
			return
		}
	}
}

// retryJob resubmits one failed job as a single-job request, returning
// either the first non-retryable outcome (success or hard failure) or,
// with the attempt or wait budget exhausted, the last failure. The
// backoff before each attempt prefers a server-sent Retry-After hint
// (a 429 on the resubmission itself); the shared budget caps the
// call's total wait. The returned result keeps the job's index in the
// original request.
func (c *Client) retryJob(ctx context.Context, req *api.CompileRequest, failed api.JobResult, budget *retryBudget) api.JobResult {
	li, mi, si := req.JobAxes(failed.Index)
	sub := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      []string{req.Loops[li]},
		Machines:   []api.MachineSpec{req.Machines[mi]},
		Schedulers: []string{req.Schedulers[si]},
		Options:    req.Options,
		TimeoutMS:  req.TimeoutMS,
		NoCache:    req.NoCache,
	}
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if budget.sleep(ctx, attempt, lastErr) != nil {
			return failed // wait budget exhausted: the original failure stands
		}
		var got *api.JobResult
		_, err := c.streamOnce(ctx, sub, func(rec api.JobResult) bool {
			got = &rec
			return true
		})
		if err != nil || got == nil {
			lastErr = err // transport trouble (or a 429 with its hint): the failure stands unless a later attempt lands
			continue
		}
		got.Index = failed.Index
		if got.Error == "" || !got.ErrorCode.Retryable() {
			return *got
		}
		failed = *got
		lastErr = nil
	}
	return failed
}

// LeaseWork posts to POST /v1/workers/lease: the worker half of the
// distributed execution protocol. The returned lease is empty (ID "")
// when the coordinator had no work within the request's wait budget;
// re-poll after the lease's PollMS hint. Plain transport plumbing —
// the pull loop around it lives in internal/worker.
func (c *Client) LeaseWork(ctx context.Context, req api.LeaseRequest) (*api.Lease, error) {
	if req.Protocol == "" {
		req.Protocol = api.Version
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, api.PathWorkersLease, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err = api.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	lease, err := api.DecodeLease(body)
	if err != nil {
		return nil, fmt.Errorf("dmsclient: bad lease: %w", err)
	}
	return lease, nil
}

// PushWorkResults posts unit results (or, with an empty slice, a pure
// heartbeat) to POST /v1/workers/{lease}/results. A lease the
// coordinator no longer honors surfaces as an *api.Error with code
// lease_expired — the worker must drop the lease's remaining work.
func (c *Client) PushWorkResults(ctx context.Context, lease string, results []api.UnitResult) (*api.WorkResultsResponse, error) {
	body, err := api.AppendWorkResults(nil, &api.WorkResultsRequest{Protocol: api.Version, Results: results})
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, api.WorkerResultsPath(lease), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.WorkResultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// collect reassembles a result stream of n jobs in request (index)
// order, verifying that every job arrived exactly once, and recomputes
// the summary over the final results.
func collect(seq iter.Seq2[api.JobResult, error], n int) ([]api.JobResult, *api.Summary, error) {
	out := make([]api.JobResult, n)
	seen := make([]bool, n)
	count := 0
	for rec, err := range seq {
		if err != nil {
			return nil, nil, err
		}
		if rec.Index < 0 || rec.Index >= n {
			return nil, nil, fmt.Errorf("dmsclient: result index %d out of range [0,%d)", rec.Index, n)
		}
		if seen[rec.Index] {
			return nil, nil, fmt.Errorf("dmsclient: job %d streamed twice", rec.Index)
		}
		seen[rec.Index] = true
		out[rec.Index] = rec
		count++
	}
	if count != n {
		return nil, nil, fmt.Errorf("dmsclient: stream carried %d of %d results", count, n)
	}
	sum := api.Summary{Jobs: n}
	for i := range out {
		if out[i].Error != "" {
			sum.Errors++
		}
		if out[i].Cached {
			sum.Cached++
		}
	}
	return out, &sum, nil
}

// CompileAll submits req synchronously and reassembles the streamed
// results in request (index) order, verifying that every job arrived
// exactly once. The returned summary is recomputed over the final
// results, so it reflects retry outcomes rather than first attempts.
func (c *Client) CompileAll(ctx context.Context, req api.CompileRequest) ([]api.JobResult, *api.Summary, error) {
	return collect(c.Compile(ctx, req), req.Jobs())
}

// ResultsAll streams a finished (or still running) job's results —
// resuming across dropped connections — and reassembles them in
// request (index) order. n is the batch size (api.Job.Jobs) of a job
// expected to run to completion; a stream that carries a different
// count is an error. A canceled or failed job's partial result set
// keeps its original batch indices (with gaps), so read it by
// iterating Results directly instead.
func (c *Client) ResultsAll(ctx context.Context, id string, n int) ([]api.JobResult, *api.Summary, error) {
	return collect(c.Results(ctx, id), n)
}
