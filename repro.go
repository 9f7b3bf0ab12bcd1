// Package repro is a Go reproduction of "Distributed Modulo
// Scheduling" (M. M. Fernandes, J. Llosa, N. Topham; HPCA-5, 1999): a
// software-pipelining compiler that integrates modulo scheduling and
// code partitioning for clustered VLIW machines connected in a
// bi-directional ring of queue register files.
//
// The root package is a thin facade over the implementation packages:
//
//	internal/machine    — clustered VLIW machine model
//	internal/loop       — innermost-loop IR (builder, text format, unrolling)
//	internal/ddg        — dependence graphs, MII bounds, copy insertion
//	internal/ims        — Rau's Iterative Modulo Scheduling (baseline)
//	internal/core       — Distributed Modulo Scheduling (the paper)
//	internal/lifetime   — queue register allocation
//	internal/codegen    — prologue/kernel/epilogue emission
//	internal/vliw       — cycle-accurate functional simulator
//	internal/perfect    — workload (synthetic Perfect Club substitute)
//	internal/experiment — the paper's Figures 4, 5 and 6
//
// # Compiling
//
// Construct a Compiler with New and submit typed Requests:
//
//	c, err := repro.New().Compile(ctx, repro.Request{
//		Loop:     l,
//		Clusters: 4,
//	})
//
// Every compilation in the repo — the library facade, both CLIs, the
// compile service and the evaluation harness — flows through this one
// path, so validation (scheduler/machine family pairing, unroll
// bounds) happens in exactly one place. The scheduling artefacts
// (Schedule, Stats, Metrics) are computed eagerly; the back half of
// the tool chain (queue allocation, code emission, simulation) is
// computed lazily by the Compiled methods, so bulk harnesses that only
// read the II pay nothing for it.
//
// Scheduler dispatch goes through internal/driver: a registry of
// named back-ends ("dms", "twophase", "ims", "sms") behind a common
// Scheduler interface, plus a concurrent batch compiler
// (driver.CompileAll) that shards (loop × machine × scheduler) jobs
// across a worker pool with deterministic result ordering. Large
// workloads should build a job list and call the batch compiler
// directly, as cmd/dmsbench and internal/experiment do. New back-ends
// register themselves with driver.Register and become selectable by
// name everywhere at once.
//
// The compile service (internal/server, cmd/dmsserve) exposes the same
// pipeline over HTTP; its wire contract lives in repro/api/v1 and a Go
// client SDK in pkg/dmsclient.
package repro

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/lifetime"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/vliw"
)

// Compiler runs the paper's tool chain on Requests. The zero value is
// not usable; construct one with New. A Compiler is immutable and safe
// for concurrent use.
type Compiler struct {
	reg     *driver.Registry
	lat     *machine.Latencies
	timeout time.Duration
}

// Option configures a Compiler.
type Option func(*Compiler)

// WithRegistry resolves scheduler names against reg instead of the
// process-wide default registry.
func WithRegistry(reg *driver.Registry) Option {
	return func(c *Compiler) { c.reg = reg }
}

// WithLatencies overrides the default operation latency model.
func WithLatencies(lat machine.Latencies) Option {
	return func(c *Compiler) { c.lat = &lat }
}

// WithTimeout bounds each compilation's scheduling time; the deadline
// is delivered to the back-end through its context.
func WithTimeout(d time.Duration) Option {
	return func(c *Compiler) { c.timeout = d }
}

// New returns a Compiler with the given options applied.
func New(opts ...Option) *Compiler {
	c := &Compiler{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Request describes one compilation.
type Request struct {
	// Loop is the loop to compile (required).
	Loop *loop.Loop
	// Clusters sizes the conventional machine of the scheduler's
	// family when Machine is nil.
	Clusters int
	// Machine, when non-nil, is the explicit target and overrides
	// Clusters/Unclustered.
	Machine *machine.Machine
	// Scheduler selects a back-end by registry name (see
	// driver.Names). Empty means "dms", or "ims" with Unclustered.
	Scheduler string
	// Unclustered schedules on the equivalent unclustered machine
	// (defaulting the scheduler to the IMS baseline) instead of the
	// clustered machine with DMS.
	Unclustered bool
	// Unroll replicates the body before scheduling (0 and 1 = off).
	Unroll int
	// Options passes tuning and ablation switches to the scheduler.
	Options driver.Options
}

// scheduler resolves the back-end name. An explicit Machine overrides
// the Unclustered flag here too: the default follows the machine's
// family (single-cluster machines take the IMS baseline), not a flag
// the machine already made irrelevant.
func (r Request) scheduler() string {
	if r.Scheduler != "" {
		return r.Scheduler
	}
	if r.Machine != nil {
		if r.Machine.Clusters == 1 {
			return "ims"
		}
		return "dms"
	}
	if r.Unclustered {
		return "ims"
	}
	return "dms"
}

// Compile runs the front half of the tool chain on the request:
// unrolling (optional), copy insertion (for clustered machines with at
// least two clusters), scheduling with the selected back-end, schedule
// verification and dynamic measurement. The returned Compiled computes
// queue allocation, code emission and simulation lazily on first use.
//
// ctx is threaded through the driver into the scheduler's II search,
// so a canceled context (or an expired deadline, including the
// Compiler's WithTimeout) aborts scheduling work instead of running it
// to completion.
func (c *Compiler) Compile(ctx context.Context, req Request) (*Compiled, error) {
	if req.Loop == nil {
		return nil, fmt.Errorf("repro: request needs a loop")
	}
	work := req.Loop
	if req.Unroll != 0 && req.Unroll != 1 {
		u, err := loop.Unroll(req.Loop, req.Unroll)
		if err != nil {
			return nil, err
		}
		work = u
	}
	reg := c.reg
	if reg == nil {
		reg = driver.Default
	}
	sched, err := reg.Get(req.scheduler())
	if err != nil {
		return nil, err
	}
	m := req.Machine
	if m == nil {
		if req.Clusters < 1 {
			return nil, fmt.Errorf("repro: request needs clusters >= 1 or a machine")
		}
		m = driver.MachineFor(sched, req.Clusters)
		if req.Unclustered && sched.Clustered() {
			m = machine.Unclustered(req.Clusters)
		}
	}
	// WithLatencies wins when set; otherwise the machine's own latency
	// model applies — exactly what the compile service does for the
	// same job — so a custom machine config's latencies are honored
	// whichever door the request came through.
	lat := c.lat
	if lat == nil {
		lat = &m.Lat
	}
	res := driver.Compile(ctx, driver.Job{
		Loop:      work,
		Machine:   m,
		Scheduler: sched.Name(),
		Options:   req.Options,
	}, driver.BatchOptions{
		Timeout:   c.timeout,
		Latencies: lat,
		Registry:  c.reg,
	})
	if res.Err != nil {
		return nil, res.Err
	}
	return &Compiled{
		Schedule:  res.Schedule,
		Machine:   m,
		Scheduler: sched.Name(),
		Stats:     res.Stats,
		Metrics:   res.Metrics,
		II:        res.Stats.II,
		MII:       res.Stats.MII,
		trip:      work.Trip,
	}, nil
}

// Compiled bundles the artefacts of one compilation. The scheduling
// results are populated by Compiler.Compile; the queue allocation,
// generated code and simulation are produced (and memoized) on first
// call of the corresponding method.
type Compiled struct {
	// Schedule is the verified modulo schedule (it references the
	// transformed dependence graph, including inserted copies and
	// moves).
	Schedule *schedule.Schedule
	// Machine is the target.
	Machine *machine.Machine
	// Scheduler is the resolved back-end name the request compiled
	// with (after defaulting), so callers report the scheduler that
	// actually ran.
	Scheduler string
	// Stats is the back-end's normalized scheduling report.
	Stats driver.Stats
	// Metrics are the dynamic cycle/IPC measurements for the loop's
	// trip count.
	Metrics schedule.Metrics
	// II is the achieved initiation interval; MII the lower bound.
	II, MII int

	trip int

	allocOnce sync.Once
	alloc     *lifetime.Allocation
	allocErr  error

	progOnce sync.Once
	prog     *codegen.Program
	progErr  error
}

// Allocation assigns every value lifetime to a FIFO queue of an LRF or
// CQRF, computing the assignment on first call.
func (c *Compiled) Allocation() (*lifetime.Allocation, error) {
	c.allocOnce.Do(func() {
		c.alloc, c.allocErr = lifetime.Analyze(c.Schedule)
	})
	return c.alloc, c.allocErr
}

// Program emits the prologue/kernel/epilogue code, computing it on
// first call.
func (c *Compiled) Program() (*codegen.Program, error) {
	c.progOnce.Do(func() {
		c.prog, c.progErr = codegen.Emit(c.Schedule, c.trip)
	})
	return c.prog, c.progErr
}

// Simulate executes the compiled loop on the cycle-accurate simulator
// for its trip count, checking FIFO queue discipline and comparing
// every value against the scalar reference execution.
func (c *Compiled) Simulate() (*vliw.Result, error) {
	alloc, err := c.Allocation()
	if err != nil {
		return nil, err
	}
	return vliw.Simulate(c.Schedule, alloc, c.Metrics.Trip)
}
