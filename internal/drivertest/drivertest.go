// Package drivertest holds scheduler test doubles shared by the
// service and SDK suites: wrappers around real back-ends that inject
// the failure modes the async/retry machinery must survive. Keeping
// them here means a change to the driver.Scheduler signature is
// patched once, not once per test package.
package drivertest

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Gated wraps a real back-end behind a gate channel, so tests can
// hold a puller busy deterministically: Schedule blocks until the
// gate closes (or the context is canceled) before delegating. Calls
// counts Schedule invocations — the canceled-queued-job-never-compiles
// assertions read it.
type Gated struct {
	driver.Scheduler
	Gate  chan struct{}
	Calls atomic.Int64
}

// NewGated returns a Gated wrapper around the registered back-end
// named name, with a fresh open gate.
func NewGated(name string) (*Gated, error) {
	real, err := driver.Get(name)
	if err != nil {
		return nil, err
	}
	return &Gated{Scheduler: real, Gate: make(chan struct{})}, nil
}

func (g *Gated) Schedule(ctx context.Context, gr *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	g.Calls.Add(1)
	select {
	case <-g.Gate:
	case <-ctx.Done():
		return nil, driver.Stats{}, ctx.Err()
	}
	return g.Scheduler.Schedule(ctx, gr, m, opt)
}

// Slow wraps a real back-end behind a fixed delay, so tests can give
// batches a known, nontrivial service time (e.g. to establish the
// adaptive Retry-After EWMA) without a gate to coordinate.
type Slow struct {
	driver.Scheduler
	Delay time.Duration
}

// NewSlow returns a Slow wrapper around the registered back-end named
// name.
func NewSlow(name string, delay time.Duration) (*Slow, error) {
	real, err := driver.Get(name)
	if err != nil {
		return nil, err
	}
	return &Slow{Scheduler: real, Delay: delay}, nil
}

func (s *Slow) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	t := time.NewTimer(s.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, driver.Stats{}, ctx.Err()
	}
	return s.Scheduler.Schedule(ctx, g, m, opt)
}

// Flaky wraps a real back-end and fails exactly once — with a
// timeout-shaped error — for the job matching (LoopName, Clusters),
// inducing the mid-stream retry the client e2e tests assert on.
type Flaky struct {
	driver.Scheduler
	LoopName string
	Clusters int
	Fired    atomic.Bool
}

func (f *Flaky) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt driver.Options) (*schedule.Schedule, driver.Stats, error) {
	if m.Clusters == f.Clusters && strings.Contains(g.Name(), f.LoopName) && f.Fired.CompareAndSwap(false, true) {
		return nil, driver.Stats{}, fmt.Errorf("induced scheduling timeout: %w", context.DeadlineExceeded)
	}
	return f.Scheduler.Schedule(ctx, g, m, opt)
}
