package codegen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func dotSchedule(t testing.TB) *schedule.Schedule {
	t.Helper()
	g := ddg.FromLoop(perfect.KernelDot(), machine.DefaultLatencies())
	s, _, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(1), ims.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEmitAccounting(t *testing.T) {
	s := dotSchedule(t)
	const trip = 100
	p, err := Emit(s, trip)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Cycles(), s.Measure(trip).Cycles; got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
	if got, want := p.IssuedOps(), int64(trip*s.Graph().NumNodes()); got != want {
		t.Errorf("IssuedOps = %d, want %d", got, want)
	}
	if len(p.Kernel) != p.II {
		t.Errorf("kernel has %d bundles, want II=%d", len(p.Kernel), p.II)
	}
	if len(p.Prologue) != (p.Stages-1)*p.II {
		t.Errorf("prologue has %d bundles, want %d", len(p.Prologue), (p.Stages-1)*p.II)
	}
	if p.KernelRuns != trip-p.Stages+1 {
		t.Errorf("KernelRuns = %d, want %d", p.KernelRuns, trip-p.Stages+1)
	}
}

func TestEmitShortTrip(t *testing.T) {
	s := dotSchedule(t)
	trip := 1
	p, err := Emit(s, trip)
	if err != nil {
		t.Fatal(err)
	}
	if p.KernelRuns != 0 || len(p.Kernel) != 0 {
		t.Fatal("trip 1 should not reach steady state")
	}
	if got, want := p.IssuedOps(), int64(s.Graph().NumNodes()); got != want {
		t.Errorf("IssuedOps = %d, want %d", got, want)
	}
	if got, want := p.Cycles(), s.Measure(trip).Cycles; got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
}

func TestEmitErrors(t *testing.T) {
	s := dotSchedule(t)
	if _, err := Emit(s, 0); err == nil {
		t.Error("trip 0 accepted")
	}
	g := ddg.FromLoop(perfect.KernelDot(), machine.DefaultLatencies())
	incomplete := schedule.New(g, machine.Unclustered(1), 3)
	if _, err := Emit(incomplete, 10); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestEmitIdentitiesAcrossCorpus(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		g := ddg.FromLoop(l, machine.DefaultLatencies())
		ddg.InsertCopies(g, ddg.MaxUses)
		s, _, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(4), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		p, err := Emit(s, l.Trip)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got, want := p.Cycles(), s.Measure(l.Trip).Cycles; got != want {
			t.Fatalf("%s: Cycles %d != Measure %d", l.Name, got, want)
		}
		if got, want := p.IssuedOps(), int64(l.Trip)*int64(s.Graph().NumNodes()); got != want {
			t.Fatalf("%s: IssuedOps %d != %d", l.Name, got, want)
		}
	}
}

func TestEmitKernelCoversEveryOpOnce(t *testing.T) {
	s := dotSchedule(t)
	p, err := Emit(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, b := range p.Kernel {
		for _, op := range b.Ops {
			seen[op.Node]++
			if op.Iteration != -1 {
				t.Errorf("kernel op has concrete iteration %d", op.Iteration)
			}
		}
	}
	for _, id := range s.Graph().NodeIDs() {
		if seen[id] != 1 {
			t.Errorf("node %d appears %d times in kernel, want 1", id, seen[id])
		}
	}
}

func TestRender(t *testing.T) {
	s := dotSchedule(t)
	p, err := Emit(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Render(s)
	for _, want := range []string{"loop dot", "prologue", "kernel", "epilogue", "acc", "mul"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
