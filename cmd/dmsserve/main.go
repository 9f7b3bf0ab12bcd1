// Command dmsserve runs the compile service in one of three roles:
//
//	dmsserve                        # standalone: serve and compile in one process
//	dmsserve -role coordinator      # serve the API, farm compiles out to workers
//	dmsserve -role worker -coordinator http://host:8080
//
// Standalone (the default) is the single-process service of earlier
// releases, byte-compatible on the wire: an HTTP JSON API over the
// batch driver with a content-addressed schedule cache and an
// asynchronous job registry (see internal/server and internal/jobs).
// The wire contract is repro/api/v1, served under /v1. Admitted
// batches decompose into compile units on one unit queue, which a pool
// of -par in-process pullers leases and compiles; one batch holds at
// most half the pool.
//
// A coordinator serves the same client API but does no scheduling
// itself: it starts no pullers, and worker processes lease its compile
// units in chunks over POST /v1/workers/lease — routed by
// content hash, so identical loops land on the same worker's warm
// cache — and resolve over POST /v1/workers/{lease}/results. A worker
// that crashes mid-chunk loses its lease after -lease-ttl without
// heartbeats and its units return to the queue; clients cannot tell
// how many workers served them, or that workers exist at all.
//
// A worker is the other half: a headless pull loop (internal/worker)
// against the coordinator named by -coordinator, compiling with the
// local driver through a local schedule cache. Workers self-schedule:
// after a warm-up at -chunk units per lease, each sizes its next
// request from its own service-time EWMA and the backlog the
// coordinator reports, capped at server.DefaultLeaseChunkMax (256)
// units. Completed results batch into worker.DefaultPostWindow (25 ms)
// flushes instead of one POST per unit, and -schedulers restricts
// which units the coordinator routes here.
//
// Both serving roles accept -data-dir, which makes the control plane
// durable: each job's result segment under that directory records the
// batch's request before the submit answers, then its results. A
// coordinator killed mid-batch and restarted over the same -data-dir
// resumes interrupted jobs under their original IDs — their pending
// units are rebuilt from the requests and queued again, for workers to
// drain — and finished jobs stay pollable. A standalone server resumes
// the same way, its in-process pullers draining the recovered units.
//
// Submit work with cmd/dmsclient, the pkg/dmsclient SDK, or any HTTP
// client. The synchronous surface streams NDJSON closed by a summary
// record; the asynchronous surface decouples submission from result
// transfer and survives dropped connections via ?from= resume:
//
//	curl -N localhost:8080/v1/compile -d '{
//	  "loops": ["loop dot trip 100\nx = load\ny = load\nm = mul x, y\nacc = add m, acc@1\nout = store acc\n"],
//	  "machines": [{"clusters": 4}],
//	  "schedulers": ["dms"]
//	}'
//	curl -d @req.json localhost:8080/v1/jobs          # → {"id": "...", "state": "queued", ...}
//	curl localhost:8080/v1/jobs/<id>                  # poll
//	curl -N localhost:8080/v1/jobs/<id>/results?from=0
//	curl -X DELETE localhost:8080/v1/jobs/<id>        # cancel
//	curl localhost:8080/v1/metrics
//
// A job is queued until its first unit is claimed. When -queue jobs
// are queued, submissions answer 429 queue_full with the queue
// position in the error detail and a Retry-After hint that scales
// with queue depth × the observed batch service time over the running
// batches (-retry-after seeds the hint until the first batch
// completes).
//
// SIGINT/SIGTERM drain the server gracefully: in-flight requests get a
// shutdown grace period and their contexts cancel any scheduling work
// still running; queued jobs finish as canceled without compiling. A
// worker exits promptly; its unposted units return to the queue when
// its leases expire.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/worker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dmsserve: ")
	var (
		role       = flag.String("role", "standalone", "standalone (serve + compile), coordinator (serve, farm out to workers) or worker (pull from -coordinator)")
		addr       = flag.String("addr", ":8080", "listen address (standalone/coordinator)")
		cacheSize  = flag.Int("cache", server.DefaultCacheSize, "max cached schedules")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-job scheduling timeout (0 = none)")
		par        = flag.Int("par", 0, "compile parallelism: size of the in-process puller pool, of which one batch holds at most half (standalone; 0 = 2 × GOMAXPROCS), or concurrent units (worker; 0 = GOMAXPROCS)")
		queue      = flag.Int("queue", jobs.DefaultCapacity, "queued-job capacity: jobs admitted with no unit claimed yet (submissions past it answer 429)")
		jobTTL     = flag.Duration("job-ttl", jobs.DefaultTTL, "retention of finished jobs' results for polling/resume")
		jobBytes   = flag.Int64("job-bytes", jobs.DefaultMaxRetainedBytes, "cap on the total encoded size of retained results' NDJSON lines")
		retryAfter = flag.Duration("retry-after", server.DefaultRetryAfter, "429 backoff hint until batch service times are observed (then adaptive)")
		dataDir    = flag.String("data-dir", "", "durable state directory: one result segment per job, holding its request and results, recovered on restart (empty = in-memory)")
		fsync      = flag.Bool("fsync", true, "fsync every durable append (with -data-dir; off rides the OS page cache)")
		grace      = flag.Duration("grace", 10*time.Second, "shutdown grace period")

		// Distribution (coordinator/worker roles).
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL (worker role)")
		workerID    = flag.String("worker-id", "", "stable worker identity for hash routing (worker role; default hostname+random)")
		chunk       = flag.Int("chunk", 0, "compile units per lease request until the worker's service-time EWMA warms up (worker; 0 = the coordinator's default of 8)")
		schedulers  = flag.String("schedulers", "", "comma-separated scheduler names this worker advertises; the coordinator routes others elsewhere (worker; empty = all registered)")
		leaseTTL    = flag.Duration("lease-ttl", server.DefaultLeaseTTL, "worker lease heartbeat deadline before units requeue (coordinator)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *role {
	case "worker":
		var advertise []string
		if *schedulers != "" {
			for _, s := range strings.Split(*schedulers, ",") {
				if s = strings.TrimSpace(s); s != "" {
					advertise = append(advertise, s)
				}
			}
		}
		// DMS_UNIT_DELAY stalls every unit by a fixed duration — a fault
		// and heterogeneity injection hook for smoke tests and benchmarks
		// (a worker started with it models a machine that slow).
		var unitDelay time.Duration
		if v := os.Getenv("DMS_UNIT_DELAY"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				log.Fatalf("bad DMS_UNIT_DELAY %q: %v", v, err)
			}
			unitDelay = d
		}
		log.Printf("worker pulling from %s (initial chunk %d, cache %d entries)", *coordinator, *chunk, *cacheSize)
		err := worker.Run(ctx, worker.Options{
			Coordinator: *coordinator,
			ID:          *workerID,
			Chunk:       *chunk,
			Schedulers:  advertise,
			UnitDelay:   unitDelay,
			Parallelism: *par,
			CacheSize:   *cacheSize,
			Logf:        log.Printf,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		log.Print("worker stopped")
		return
	case "standalone", "coordinator":
		// Both serve the full /v1 surface; they differ only in where
		// admitted batches compile.
	default:
		log.Fatalf("unknown -role %q (want standalone, coordinator or worker)", *role)
	}

	svc, err := server.Open(server.Options{
		CacheSize:        *cacheSize,
		Timeout:          *timeout,
		Parallelism:      *par,
		QueueCapacity:    *queue,
		JobTTL:           *jobTTL,
		MaxRetainedBytes: *jobBytes,
		RetryAfter:       *retryAfter,
		Distribute:       *role == "coordinator",
		LeaseTTL:         *leaseTTL,
		DataDir:          *dataDir,
		Fsync:            *fsync,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	if *dataDir != "" {
		m := svc.Snapshot()
		log.Printf("durable state in %s (fsync %v): recovered %d queued units, %d result buffers",
			*dataDir, *fsync, m.Durability.RecoveredTasks, m.Durability.RecoveredBuffers)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
	}

	pullers := svc.Snapshot().Queue.Workers
	errc := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s (cache %d entries, job timeout %v, queue %d, %d pullers)",
			*role, *addr, *cacheSize, *timeout, *queue, pullers)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down (grace %v)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Streams still open after the grace period: cut them, their
		// request contexts cancel the remaining scheduling work.
		httpSrv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
