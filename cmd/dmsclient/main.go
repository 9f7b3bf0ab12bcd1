// Command dmsclient submits work to a running compile service
// (cmd/dmsserve) through the pkg/dmsclient SDK: it reads a directory
// of loop files, posts the (loops × machines × schedulers) cross
// product, reassembles the NDJSON stream in index order — retrying
// canceled and timed-out jobs with per-job backoff — and prints a
// summary table.
//
// By default the synchronous POST /v1/compile surface is used. With
// -async the batch goes through the job resource API instead: submit
// via POST /v1/jobs (waiting out 429 queue_full rejections with the
// server's Retry-After hint), poll the job to completion, then stream
// the retained results — resuming with the ?from= offset if the
// connection drops.
//
// Usage:
//
//	dmsclient -addr http://localhost:8080 -dir ./loops -clusters 2,4 -schedulers dms,twophase
//	dmsclient -addr http://localhost:8080 -dir ./loops -async
//	dmsclient -addr http://localhost:8080 -list-schedulers
//	dmsclient -addr http://localhost:8080 -metrics
//
// Exit status is non-zero if any job failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	api "repro/api/v1"
	"repro/pkg/dmsclient"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dmsclient: ")
	var (
		addr        = flag.String("addr", "http://localhost:8080", "service base URL")
		dir         = flag.String("dir", "", "directory of loop files (*.loop) to submit")
		clusters    = flag.String("clusters", "4", "comma-separated cluster counts to target")
		unclustered = flag.Bool("unclustered", false, "target the equivalent unclustered machines instead")
		schedulers  = flag.String("schedulers", "dms", "comma-separated scheduler names (see -list-schedulers)")
		timeout     = flag.Duration("timeout", 0, "per-job scheduling timeout sent with the request (0 = server default)")
		retries     = flag.Int("retries", 2, "retry attempts for canceled/timed-out jobs and dropped streams")
		backoff     = flag.Duration("backoff", 100*time.Millisecond, "base per-job retry backoff (doubles per attempt; a server Retry-After hint overrides it)")
		maxWait     = flag.Duration("max-retry-wait", dmsclient.DefaultMaxRetryWait, "cap on the cumulative retry backoff of one call")
		async       = flag.Bool("async", false, "submit through the asynchronous job API (POST /v1/jobs, poll, stream retained results)")
		noCache     = flag.Bool("no-cache", false, "bypass the server's result cache lookup")
		listScheds  = flag.Bool("list-schedulers", false, "list the server's schedulers and exit")
		metrics     = flag.Bool("metrics", false, "print the server's metrics and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli := dmsclient.New(*addr,
		dmsclient.WithRetries(*retries),
		dmsclient.WithBackoff(*backoff),
		dmsclient.WithMaxRetryWait(*maxWait),
	)

	switch {
	case *listScheds:
		entries, err := cli.Schedulers(ctx)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			family := "unclustered"
			if e.Clustered {
				family = "clustered"
			}
			fmt.Printf("%-10s %s\n", e.Name, family)
		}
		return
	case *metrics:
		m, err := cli.Metrics(ctx)
		if err != nil {
			log.Fatal(err)
		}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	if *dir == "" {
		log.Fatal("need -dir (or -list-schedulers / -metrics)")
	}
	names, texts, err := readLoopDir(*dir)
	if err != nil {
		log.Fatal(err)
	}

	timeoutMS := int(timeout.Milliseconds())
	if *timeout > 0 && timeoutMS == 0 {
		timeoutMS = 1 // round sub-millisecond bounds up, never to "server default"
	}
	req := api.CompileRequest{
		Loops:      texts,
		Schedulers: splitList(*schedulers),
		TimeoutMS:  timeoutMS,
		NoCache:    *noCache,
	}
	for _, c := range splitList(*clusters) {
		n, err := strconv.Atoi(c)
		if err != nil || n < 1 {
			log.Fatalf("bad -clusters entry %q", c)
		}
		req.Machines = append(req.Machines, api.MachineSpec{Clusters: n, Unclustered: *unclustered})
	}
	if len(req.Schedulers) == 0 || len(req.Machines) == 0 || len(req.Loops) == 0 {
		log.Fatal("nothing to submit: need loops, machines and schedulers")
	}

	start := time.Now()
	var (
		results []api.JobResult
		sum     *api.Summary
	)
	if *async {
		results, sum, err = compileAsync(ctx, cli, req)
	} else {
		results, sum, err = cli.CompileAll(ctx, req)
	}
	if err != nil {
		log.Fatal(err)
	}
	printTable(names, &req, results)
	fmt.Printf("\n%d jobs, %d errors, %d cached in %v\n",
		sum.Jobs, sum.Errors, sum.Cached, time.Since(start).Round(time.Millisecond))
	if sum.Errors > 0 {
		os.Exit(1)
	}
}

// compileAsync drives the job resource API end to end: submit (the
// SDK waits out queue_full rejections with the server's Retry-After
// hint), poll to a terminal state, then stream the retained results
// with automatic ?from= resume. A SIGINT while the job is queued or
// running cancels it server-side before exiting.
func compileAsync(ctx context.Context, cli *dmsclient.Client, req api.CompileRequest) ([]api.JobResult, *api.Summary, error) {
	job, err := cli.Submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if job.QueuePos > 0 {
		log.Printf("job %s queued at position %d (%d jobs)", job.ID, job.QueuePos, job.Jobs)
	} else {
		log.Printf("job %s accepted (%d jobs)", job.ID, job.Jobs)
	}
	done, err := cli.Wait(ctx, job.ID)
	if err != nil {
		if ctx.Err() != nil {
			// Best-effort server-side cancel so an interrupted submission
			// does not keep burning compile capacity.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			cli.Cancel(cctx, job.ID)
		}
		return nil, nil, err
	}
	if done.State != api.JobDone {
		return nil, nil, fmt.Errorf("job %s finished as %s: %s", done.ID, done.State, done.Error)
	}
	return cli.ResultsAll(ctx, job.ID, done.Jobs)
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// readLoopDir loads every *.loop file of dir in name order.
func readLoopDir(dir string) (names, texts []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".loop"))
		texts = append(texts, string(data))
	}
	sort.Sort(byName{names, texts})
	if len(texts) == 0 {
		return nil, nil, fmt.Errorf("no *.loop files in %s", dir)
	}
	return names, texts, nil
}

// byName keeps the name and text slices aligned while sorting.
type byName struct{ names, texts []string }

func (b byName) Len() int           { return len(b.names) }
func (b byName) Less(i, j int) bool { return b.names[i] < b.names[j] }
func (b byName) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.texts[i], b.texts[j] = b.texts[j], b.texts[i]
}

// printTable renders the reassembled results, one row per job in
// request order. Extra counters are rendered with sorted keys, so the
// output is byte-deterministic across runs.
func printTable(names []string, req *api.CompileRequest, results []api.JobResult) {
	fmt.Printf("%-16s %-12s %-10s %5s %5s %10s %6s %7s\n",
		"loop", "machine", "scheduler", "MII", "II", "cycles", "IPC", "cached")
	for _, rec := range results {
		li, mi, si := req.JobAxes(rec.Index)
		machineName := fmt.Sprintf("c%d", req.Machines[mi].Clusters)
		if req.Machines[mi].Unclustered {
			machineName = fmt.Sprintf("u%d", req.Machines[mi].Clusters)
		}
		if len(req.Machines[mi].Config) > 0 {
			machineName = "custom"
		}
		if rec.Error != "" {
			fmt.Printf("%-16s %-12s %-10s  error [%s]: %s\n",
				names[li], machineName, req.Schedulers[si], rec.ErrorCode, rec.Error)
			continue
		}
		cached := ""
		if rec.Cached {
			cached = "yes"
		}
		ipc := 0.0
		var cycles int64
		if rec.Metrics != nil {
			ipc = rec.Metrics.IPC
			cycles = rec.Metrics.Cycles
		}
		fmt.Printf("%-16s %-12s %-10s %5d %5d %10d %6.2f %7s\n",
			names[li], machineName, req.Schedulers[si], rec.MII, rec.II, cycles, ipc, cached)
		if rec.Stats != nil {
			if extra := api.FormatExtra(rec.Stats.Extra); extra != "" {
				fmt.Printf("%-16s   %s\n", "", extra)
			}
		}
	}
}
