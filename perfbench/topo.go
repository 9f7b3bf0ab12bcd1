package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// topoOptions selects the service topology a workload drives.
type topoOptions struct {
	// workers > 0 makes the server a coordinator (Distribute) with that
	// many in-process workers pulling over loopback HTTP.
	workers int
	dataDir string  // "" = in-memory queue and result store; else durable, with fsync
	tr      *tracer // nil = untraced
}

// topology is one running service: a server on a loopback listener,
// its optional workers, and the benchmark's client.
type topology struct {
	srv       *server.Server
	hs        *http.Server
	url       string
	cli       *dmsclient.Client
	hc        *http.Client
	served    chan error
	stopWork  context.CancelFunc
	workersWG sync.WaitGroup
}

// httpClient returns an HTTP client with at most nproc connections,
// tracing through tr when it is set.
func httpClient(tr *tracer) *http.Client {
	n := runtime.NumCPU()
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if tr != nil {
		rt = transport{tr: tr, base: rt}
	}
	return &http.Client{Transport: rt}
}

// openTopology starts the service and returns once it can serve: the
// server is open (durable state recovered) and every worker has
// leased at least once.
func openTopology(ctx context.Context, o topoOptions) (*topology, error) {
	var reg *driver.Registry
	if o.tr != nil {
		var err error
		if reg, err = o.tr.registry(); err != nil {
			return nil, err
		}
	}
	srv, err := server.Open(server.Options{
		Registry:   reg,
		Distribute: o.workers > 0,
		DataDir:    o.dataDir,
		Fsync:      o.dataDir != "",
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h = srv.Handler()
	if o.tr != nil {
		h = o.tr.middleware(h)
	}
	t := &topology{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	t.hc = httpClient(o.tr)
	// Failures surface immediately and count as failed: no result
	// retries, and a retry budget below the SDK's minimum backoff.
	t.cli = dmsclient.New(t.url, dmsclient.WithHTTPClient(t.hc),
		dmsclient.WithRetries(0), dmsclient.WithMaxRetryWait(time.Millisecond))

	wctx, stop := context.WithCancel(ctx)
	t.stopWork = stop
	for i := range o.workers {
		t.workersWG.Add(1)
		go func() {
			defer t.workersWG.Done()
			worker.Run(wctx, worker.Options{
				ID:          fmt.Sprintf("w%d", i+1),
				Parallelism: 1,
				Registry:    reg,
				Client:      dmsclient.New(t.url, dmsclient.WithHTTPClient(httpClient(o.tr))),
			})
		}()
	}
	if _, err := t.cli.Health(ctx); err != nil {
		t.close()
		return nil, err
	}
	if err := t.awaitWorkers(ctx, o.workers); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// awaitWorkers polls the coordinator's dispatch gauges until n workers
// have leased.
func (t *topology) awaitWorkers(ctx context.Context, n int) error {
	if n == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m, err := t.cli.Metrics(ctx)
		if err != nil {
			return err
		}
		if m.Dispatch != nil && len(m.Dispatch.Workers) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return errors.New("workers did not attach within 30s")
}

// close stops the workers, the HTTP server and the service, waiting
// for each to end.
func (t *topology) close() {
	t.stopWork()
	t.workersWG.Wait()
	t.hs.Close()
	<-t.served
	t.srv.Close()
	t.hc.CloseIdleConnections()
}

// historyBatches is how many batches of its pool a durable workload
// records for every set-up to recover.
const historyBatches = 10

// recordHistory runs the first historyBatches batches of the spec's
// pool through the durable topology o and closes it, leaving finished
// jobs in o.dataDir.
func recordHistory(ctx context.Context, o topoOptions, spec *closedSpec, in inputs) error {
	t, err := openTopology(ctx, o)
	if err != nil {
		return err
	}
	defer t.close()
	for b := range historyBatches {
		lo := b * spec.loopsPerBatch
		if lo+spec.loopsPerBatch > len(in.texts) {
			return errors.New("recording history: pool too small")
		}
		if err := runWhole(ctx, t, spec.requests(in.texts[lo:lo+spec.loopsPerBatch])); err != nil {
			return fmt.Errorf("recording history: %w", err)
		}
	}
	return nil
}

// copyDir copies the directories and regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
