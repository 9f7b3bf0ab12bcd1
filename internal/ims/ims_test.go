package ims

import (
	"context"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

func TestScheduleDotNarrow(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	m := machine.Unclustered(1)
	s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
	// dot has 3 memory ops on 1 L/S unit: II must be exactly ResMII 3.
	if st.II != 3 {
		t.Errorf("II = %d, want 3", st.II)
	}
	if st.MII != 3 || st.IIsTried != 1 {
		t.Errorf("MII=%d IIsTried=%d, want 3 and 1", st.MII, st.IIsTried)
	}
}

func TestScheduleDotWide(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	m := machine.Unclustered(3)
	s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
	if st.II != 1 {
		t.Errorf("II = %d, want 1 (accumulator recurrence has delay 1)", st.II)
	}
}

func TestScheduleRecurrenceBound(t *testing.T) {
	// lk5 tridiag: x = z*(y - x@1): cycle delay mul+add = 4.
	g := ddg.FromLoop(perfect.KernelLivermoreTridiag(), lat())
	m := machine.Unclustered(10)
	s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
	want := lat().Of(machine.Mul) + lat().Of(machine.Add)
	if st.II != want {
		t.Errorf("II = %d, want recurrence bound %d regardless of width", st.II, want)
	}
}

func TestScheduleRejectsClusteredMachine(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	if _, _, err := ScheduleCtx(context.Background(), g, machine.Clustered(4), Options{}); err == nil {
		t.Fatal("IMS accepted a clustered machine")
	}
}

func TestScheduleAllKernels(t *testing.T) {
	for _, k := range perfect.Kernels() {
		for _, width := range []int{1, 2, 4, 8} {
			g := ddg.FromLoop(k, lat())
			m := machine.Unclustered(width)
			s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s width %d: %v", k.Name, width, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s width %d: %v", k.Name, width, err)
			}
			mii, _ := g.MII(m)
			if st.II < mii {
				t.Fatalf("%s width %d: II %d below MII %d", k.Name, width, st.II, mii)
			}
		}
	}
}

func TestScheduleCorpusSample(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 120)
	for _, l := range loops {
		for _, width := range []int{1, 3, 7} {
			g := ddg.FromLoop(l, lat())
			m := machine.Unclustered(width)
			s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s width %d: %v", l.Name, width, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s width %d: %v", l.Name, width, err)
			}
			mii, _ := g.MII(m)
			if st.II < mii {
				t.Fatalf("%s width %d: II %d < MII %d", l.Name, width, st.II, mii)
			}
		}
	}
}

func TestWiderMachineNeverHurtsII(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 60)
	for _, l := range loops {
		g := ddg.FromLoop(l, lat())
		prev := -1
		for _, width := range []int{1, 2, 4, 8} {
			_, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(width), Options{})
			if err != nil {
				t.Fatalf("%s width %d: %v", l.Name, width, err)
			}
			if prev >= 0 && st.II > prev {
				t.Errorf("%s: II rose from %d to %d when widening to %d", l.Name, prev, st.II, width)
			}
			prev = st.II
		}
	}
}

func TestTightBudgetStillSchedules(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		g := ddg.FromLoop(l, lat())
		s, _, err := ScheduleCtx(context.Background(), g, machine.Unclustered(2), Options{BudgetRatio: 1})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

func TestUnrolledLoopsSchedule(t *testing.T) {
	for _, k := range perfect.Kernels()[:6] {
		u, err := loop.Unroll(k, 4)
		if err != nil {
			t.Fatal(err)
		}
		g := ddg.FromLoop(u, lat())
		s, _, err := ScheduleCtx(context.Background(), g, machine.Unclustered(4), Options{})
		if err != nil {
			t.Fatalf("%s x4: %v", k.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s x4: %v", k.Name, err)
		}
	}
}

func TestMaxIIBound(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	if got := MaxIIBound(g); got <= 0 {
		t.Fatalf("MaxIIBound = %d", got)
	}
	// The bound must actually be schedulable: force it as the only
	// candidate.
	s, _, err := ScheduleCtx(context.Background(), g, machine.Unclustered(1), Options{MaxII: MaxIIBound(g)})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelFIR4(), lat())
	_, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Placements < g.NumNodes() {
		t.Errorf("Placements = %d < %d ops", st.Placements, g.NumNodes())
	}
	if st.II < st.MII {
		t.Errorf("II %d below MII %d", st.II, st.MII)
	}
}
