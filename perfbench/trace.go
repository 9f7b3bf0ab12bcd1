package main

import (
	"bytes"
	"cmp"
	"context"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	api "repro/api/v1"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// The tracer records spans at the layer boundaries the benchmark can
// reach from outside the program: the client's HTTP round trips (an
// http.RoundTripper), the server's routes (http.Handler middleware)
// and every scheduler call (delegating driver.Scheduler wrappers).
// Spans are kept in memory and read when the run ends; nothing is
// decoded or written while a request is in flight.

type spanKind uint8

const (
	kindTransport spanKind = iota // one client HTTP round trip, to body EOF
	kindServer                    // one server route handler
	kindSched                     // one Scheduler.Schedule call
)

// spanHeader carries the client span ID to the server, which records
// it as the parent of its route span.
const spanHeader = "Perfbench-Span"

type span struct {
	kind   spanKind
	name   string // route or scheduler name
	id     uint64
	parent uint64 // transport: root request ID; server: transport span ID
	job    string // engine job ID (sched spans, results route)
	start  int64  // ns since the tracer's epoch
	end    int64
	body   []byte // request or response body of the lease/jobs/worker_results routes
	resp   []byte // response body of worker_results
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// rootKey marks a client request context with the loadgen's root
// request ID, so transport spans name the request that caused them.
type rootKey struct{}

func withRoot(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, rootKey{}, id)
}

// routeName maps a v1 request to the route label spans carry.
func routeName(method, path string) string {
	switch {
	case path == api.PathCompile:
		return "compile"
	case path == api.PathJobs:
		return "jobs"
	case strings.HasPrefix(path, api.PathJobs+"/") && strings.HasSuffix(path, "/results"):
		return "results"
	case strings.HasPrefix(path, api.PathJobs+"/"):
		return "job"
	case path == api.PathWorkersLease:
		return "lease"
	case strings.HasPrefix(path, api.PathWorkers+"/") && strings.HasSuffix(path, "/results"):
		return "worker_results"
	case path == api.PathMetrics:
		return "metrics"
	}
	return "other"
}

// transport is the client-side tracing RoundTripper.
type transport struct {
	tr   *tracer
	base http.RoundTripper
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.ids.Add(1)
	parent, _ := req.Context().Value(rootKey{}).(uint64)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	sp := span{kind: kindTransport, name: routeName(req.Method, req.URL.Path), id: id, parent: parent, start: t.tr.now()}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.end = t.tr.now()
		t.tr.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() {
		sp.end = t.tr.now()
		t.tr.add(sp)
	}}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close, whichever comes
// first: the round trip lasts until the client has read the response.
type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.finish)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.finish)
	return b.ReadCloser.Close()
}

// middleware records one server span per request. The lease, jobs
// and worker_results bodies are kept raw for decoding after the run.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		route := routeName(r.Method, r.URL.Path)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := span{kind: kindServer, name: route, id: t.ids.Add(1), parent: parent, start: start}
		if route == "results" {
			sp.job = strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, api.PathJobs+"/"), "/results")
		}
		var reqBody []byte
		if route == "worker_results" && t.on.Load() {
			reqBody, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
		}
		var rec *bodyRecorder
		if (route == "lease" || route == "jobs" || route == "worker_results") && t.on.Load() {
			rec = &bodyRecorder{ResponseWriter: w}
			w = rec
		}
		h.ServeHTTP(w, r)
		sp.end = t.now()
		if rec != nil {
			sp.body = rec.buf.Bytes()
			if route == "worker_results" {
				sp.body, sp.resp = reqBody, rec.buf.Bytes()
			}
		}
		t.add(sp)
	})
}

// bodyRecorder tees a non-streaming response body.
type bodyRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.buf.Write(p)
	return b.ResponseWriter.Write(p)
}

// tracedScheduler wraps a registered back-end, keeping its name and
// machine family, and records each Schedule call against the engine
// job its context belongs to ("" on a worker, whose units run outside
// any engine job).
type tracedScheduler struct {
	driver.Scheduler
	tr *tracer
}

func (s tracedScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	start := s.tr.now()
	out, st, err := s.Scheduler.Schedule(ctx, g, m, opt)
	s.tr.add(span{kind: kindSched, name: s.Name(), job: jobs.JobID(ctx), start: start, end: s.tr.now()})
	return out, st, err
}

// registry returns a registry holding a traced wrapper of every
// built-in back-end.
func (t *tracer) registry() (*driver.Registry, error) {
	reg := driver.NewRegistry()
	for _, name := range driver.Names() {
		s, err := driver.Get(name)
		if err != nil {
			return nil, err
		}
		if err := reg.Register(tracedScheduler{Scheduler: s, tr: t}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// interval arithmetic over [lo, hi) spans of the tracer clock.

type interval struct{ lo, hi int64 }

// merge sorts and coalesces overlapping intervals.
func merge(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	s := slices.Clone(iv)
	slices.SortFunc(s, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	out := s[:1]
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func total(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// subtract returns a − b for merged interval lists.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, x := range a {
		lo := x.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].lo < x.hi {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			k++
		}
		if lo < x.hi {
			out = append(out, interval{lo, x.hi})
		}
	}
	return out
}

// clip intersects merged intervals with [lo, hi).
func clip(iv []interval, lo, hi int64) []interval {
	var out []interval
	for _, x := range iv {
		a, b := max(x.lo, lo), min(x.hi, hi)
		if a < b {
			out = append(out, interval{a, b})
		}
	}
	return out
}
