package repro_test

// BenchmarkDistributedDrain measures the end-to-end drain of a
// generated 1k-loop corpus through the worker-pull surface with a
// heterogeneous in-process fleet (one worker deliberately 4× slower):
// self-sized chunks (service-time EWMA × factoring bound) and
// flush-window result batches, the workers' only mode. The sub-benchmark
// keeps its name, adaptive, so runs compare with the adaptive rows of
// BENCH_PR10.json, which also records the fixed-chunk, per-unit-post
// baseline this mode replaced.
//
// Reported metrics: wall-clock makespan, result POSTs, and lease RPCs
// per drain.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	api "repro/api/v1"
	"repro/internal/loop"
	"repro/internal/perfect"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

const drainCorpus = 1000 // loops drained per benchmark iteration

// rpcCounter wraps the coordinator handler and tallies worker-protocol
// round trips.
type rpcCounter struct {
	inner  http.Handler
	leases atomic.Int64
	posts  atomic.Int64
}

func (c *rpcCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		switch {
		case r.URL.Path == api.PathWorkersLease:
			c.leases.Add(1)
		case strings.HasPrefix(r.URL.Path, "/v1/workers/") && strings.HasSuffix(r.URL.Path, "/results"):
			c.posts.Add(1)
		}
	}
	c.inner.ServeHTTP(w, r)
}

// drainOnce runs one complete drain: a fresh durable coordinator
// (WAL-backed queue and result store, synced — the deployment the ack
// path is built for), a fast and a 4×-slow worker, one batch covering
// the whole corpus.
func drainOnce(b *testing.B, req api.CompileRequest) (makespan time.Duration, posts, leases int64) {
	b.Helper()
	svc, err := server.Open(server.Options{
		Distribute: true,
		DataDir:    b.TempDir(),
		Fsync:      true,
	})
	if err != nil {
		b.Fatal(err)
	}
	counter := &rpcCounter{inner: svc.Handler()}
	ts := httptest.NewServer(counter)
	defer svc.Close()
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	const slowdown = 4
	baseDelay := 500 * time.Microsecond
	for _, opt := range []worker.Options{
		{ID: "fast", Parallelism: 8, UnitDelay: baseDelay},
		{ID: "slow", Parallelism: 8, UnitDelay: slowdown * baseDelay},
	} {
		opt.Coordinator = ts.URL
		opt.ChunkTarget = 150 * time.Millisecond
		wg.Add(1)
		go func(opt worker.Options) {
			defer wg.Done()
			worker.Run(ctx, opt)
		}(opt)
	}

	start := time.Now()
	_, sum, err := dmsclient.New(ts.URL).CompileAll(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	makespan = time.Since(start)
	if sum.Errors != 0 || sum.Jobs != req.Jobs() {
		b.Fatalf("drain summary = %+v, want %d clean jobs", sum, req.Jobs())
	}
	cancel()
	wg.Wait()
	return makespan, counter.posts.Load(), counter.leases.Load()
}

func benchDrain(b *testing.B, req api.CompileRequest) {
	var makespanMS, posts, leases float64
	for i := 0; i < b.N; i++ {
		m, p, l := drainOnce(b, req)
		makespanMS += float64(m.Milliseconds())
		posts += float64(p)
		leases += float64(l)
	}
	n := float64(b.N)
	b.ReportMetric(makespanMS/n, "makespan_ms")
	b.ReportMetric(posts/n, "result_posts")
	b.ReportMetric(leases/n, "lease_rpcs")
	b.ReportMetric(float64(req.Jobs()), "units")
}

func BenchmarkDistributedDrain(b *testing.B) {
	loops := perfect.CorpusN(perfect.DefaultSeed, drainCorpus)
	texts := make([]string, len(loops))
	for i, l := range loops {
		texts[i] = loop.Format(l)
	}
	req := api.CompileRequest{
		Protocol:   api.Version,
		Loops:      texts,
		Machines:   []api.MachineSpec{{Clusters: 2, Unclustered: true}},
		Schedulers: []string{"ims"},
	}
	b.Run("adaptive", func(b *testing.B) { benchDrain(b, req) })
}
