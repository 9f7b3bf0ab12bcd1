package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/perfect"
)

func TestCompileClusteredAndSimulate(t *testing.T) {
	comp := repro.New()
	for _, name := range []string{"dot", "fir4", "iir"} {
		k, err := perfect.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := comp.Compile(context.Background(), repro.Request{Loop: k, Clusters: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.II < c.MII || c.II < 1 {
			t.Errorf("%s: II %d vs MII %d", name, c.II, c.MII)
		}
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prog.Cycles() != c.Metrics.Cycles {
			t.Errorf("%s: program cycles %d != metrics %d", name, prog.Cycles(), c.Metrics.Cycles)
		}
		res, err := c.Simulate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cycles != c.Metrics.Cycles {
			t.Errorf("%s: simulated %d cycles, model %d", name, res.Cycles, c.Metrics.Cycles)
		}
	}
}

func TestCompileUnclustered(t *testing.T) {
	c, err := repro.New().Compile(context.Background(), repro.Request{
		Loop: perfect.KernelSAXPY(), Clusters: 2, Unclustered: true, Unroll: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine.Clusters != 1 {
		t.Errorf("unclustered machine has %d clusters", c.Machine.Clusters)
	}
	if _, err := c.Simulate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileExplicitMachine(t *testing.T) {
	m := machine.Clustered(3)
	c, err := repro.New().Compile(context.Background(), repro.Request{Loop: perfect.KernelDot(), Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine != m {
		t.Errorf("compiled on %v, want the explicit machine %v", c.Machine, m)
	}
	if c.Scheduler != "dms" {
		t.Errorf("resolved scheduler %q, want dms for a multi-cluster machine", c.Scheduler)
	}

	// An explicit Machine overrides the Unclustered flag everywhere,
	// including the scheduler default — the flag must not drag in an
	// unclustered back-end for a clustered target.
	c, err = repro.New().Compile(context.Background(), repro.Request{
		Loop: perfect.KernelDot(), Machine: m, Unclustered: true,
	})
	if err != nil {
		t.Fatalf("explicit machine + stale Unclustered flag: %v", err)
	}
	if c.Scheduler != "dms" || c.Machine != m {
		t.Errorf("scheduler %q on %v, want dms on the explicit machine", c.Scheduler, c.Machine)
	}

	// A single-cluster explicit machine defaults to the IMS baseline.
	c, err = repro.New().Compile(context.Background(), repro.Request{
		Loop: perfect.KernelDot(), Machine: machine.Unclustered(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheduler != "ims" {
		t.Errorf("resolved scheduler %q, want ims for a single-cluster machine", c.Scheduler)
	}
}

func TestCompileRequestValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := repro.New().Compile(ctx, repro.Request{Loop: perfect.KernelDot(), Clusters: 2, Unroll: -1}); err == nil {
		t.Error("negative unroll accepted")
	}
	if _, err := repro.New().Compile(ctx, repro.Request{Clusters: 2}); err == nil {
		t.Error("nil loop accepted")
	}
	if _, err := repro.New().Compile(ctx, repro.Request{Loop: perfect.KernelDot()}); err == nil {
		t.Error("missing clusters and machine accepted")
	}
	if _, err := repro.New().Compile(ctx, repro.Request{Loop: perfect.KernelDot(), Clusters: 2, Scheduler: "nope"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestCompilerTimeout(t *testing.T) {
	// A 1 ns budget cannot complete any II search; the deadline must
	// surface as an error, not a hang or a bogus schedule.
	comp := repro.New(repro.WithTimeout(time.Nanosecond))
	if _, err := comp.Compile(context.Background(), repro.Request{Loop: perfect.KernelFIR4(), Clusters: 4}); err == nil {
		t.Error("1 ns timeout produced a schedule")
	}
}
