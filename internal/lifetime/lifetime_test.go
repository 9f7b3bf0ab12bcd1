package lifetime

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func scheduleKernel(t testing.TB, name string, clusters int) *schedule.Schedule {
	t.Helper()
	k, err := perfect.KernelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := ddg.FromLoop(k, machine.DefaultLatencies())
	if clusters >= 2 {
		ddg.InsertCopies(g, ddg.MaxUses)
	}
	s, _, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(clusters), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeDotSingleCluster(t *testing.T) {
	s := scheduleKernel(t, "dot", 1)
	a, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Files) != 1 || a.Files[0].Kind != LRF {
		t.Fatalf("want a single LRF, got %+v", a.Files)
	}
	// dot has 5 carried edges (x->m, y->m, m->acc, acc->acc, acc->out).
	n := 0
	for _, q := range a.Files[0].Queues {
		n += len(q)
	}
	if n != 5 {
		t.Errorf("allocated %d lifetimes, want 5", n)
	}
	if a.MaxDepth() < 1 {
		t.Error("queues must hold at least one value")
	}
}

func TestAnalyzeUsesCQRFsAcrossClusters(t *testing.T) {
	found := false
	for _, name := range []string{"fir4", "cmul", "lk1-hydro"} {
		s := scheduleKernel(t, name, 4)
		a, err := Analyze(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range a.Files {
			if f.Kind == CQRF {
				found = true
				if !s.Machine().Adjacent(f.Src, f.Dst) {
					t.Fatalf("%s: CQRF between non-adjacent clusters %d,%d", name, f.Src, f.Dst)
				}
				if f.Src == f.Dst {
					t.Fatalf("%s: CQRF with equal endpoints", name)
				}
			}
		}
	}
	if !found {
		t.Error("no kernel used a CQRF on 4 clusters; partitioning is suspicious")
	}
}

func TestLifetimesWithinQueueAreFIFO(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 50) {
		g := ddg.FromLoop(l, machine.DefaultLatencies())
		ddg.InsertCopies(g, ddg.MaxUses)
		s, _, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(4), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		a, err := Analyze(s)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, f := range a.Files {
			for _, q := range f.Queues {
				for i := 0; i < len(q); i++ {
					for j := i + 1; j < len(q); j++ {
						if !Compatible(q[i], q[j], a.II, s.Stages()) {
							t.Fatalf("%s: %s queue holds incompatible lifetimes %+v / %+v",
								l.Name, f.Name(), q[i], q[j])
						}
					}
				}
			}
		}
	}
}

func TestAnalyzeRejectsPartialSchedule(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), machine.DefaultLatencies())
	s := schedule.New(g, machine.Clustered(1), 3)
	s.Place(0, schedule.Placement{Time: 0})
	if _, err := Analyze(s); err == nil {
		t.Fatal("partial schedule accepted")
	}
}

func TestCompatibleBasics(t *testing.T) {
	ii, stages := 4, 3
	a := Lifetime{Write: 0, Read: 2}
	b := Lifetime{Write: 1, Read: 3}
	if !Compatible(a, b, ii, stages) {
		t.Error("nested-in-order lifetimes must share a queue")
	}
	crossing := Lifetime{Write: 1, Read: 1 + 4} // written after a, read after a's read
	_ = crossing
	c := Lifetime{Write: 1, Read: 2} // read collides with a mod II? 2 vs 2 -> collision
	if Compatible(a, c, ii, stages) {
		t.Error("read collision must be incompatible")
	}
	d := Lifetime{Write: 4, Read: 6} // same slots as a, shifted one II
	if Compatible(a, d, ii, stages) {
		t.Error("write collision mod II must be incompatible")
	}
	e := Lifetime{Write: 1, Read: 11} // long lifetime: crosses a's instances
	if Compatible(a, e, ii, stages) != Compatible(e, a, ii, stages) {
		t.Error("compatibility must be symmetric")
	}
}

func TestCompatibleSymmetricProperty(t *testing.T) {
	prop := func(w1, r1, w2, r2 uint8, iiRaw uint8) bool {
		ii := int(iiRaw%7) + 2
		a := Lifetime{Write: int(w1 % 40), Read: 0}
		a.Read = a.Write + int(r1%30)
		b := Lifetime{Write: int(w2 % 40), Read: 0}
		b.Read = b.Write + int(r2%30)
		return Compatible(a, b, ii, 10) == Compatible(b, a, ii, 10)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueDepthSimpleCases(t *testing.T) {
	// Occupancy is [write, read] inclusive: a value alive exactly one
	// II overlaps its successor during the read cycle -> depth 2.
	q := []Lifetime{{Write: 0, Read: 4}}
	if got := queueDepth(q, 4); got != 2 {
		t.Errorf("full-II lifetime depth = %d, want 2", got)
	}
	// Span 9 at II 4 occupies 10 cycles: 2 full copies + partial -> 3.
	q = []Lifetime{{Write: 0, Read: 9}}
	if got := queueDepth(q, 4); got != 3 {
		t.Errorf("span-9 depth = %d, want 3", got)
	}
	// A same-cycle write/read still occupies its entry for that cycle.
	q = []Lifetime{{Write: 2, Read: 2}}
	if got := queueDepth(q, 4); got != 1 {
		t.Errorf("zero-span lifetime depth = %d, want 1", got)
	}
	// Two interleaved short lifetimes.
	q = []Lifetime{{Write: 0, Read: 2}, {Write: 1, Read: 3}}
	if got := queueDepth(q, 4); got != 2 {
		t.Errorf("interleaved depth = %d, want 2", got)
	}
}

func TestAllocationStatsAcrossMachines(t *testing.T) {
	// Wider rings shift lifetimes from LRFs to CQRFs; totals must stay
	// equal to the carried-edge count of the scheduled graph.
	for _, clusters := range []int{1, 2, 4, 8} {
		s := scheduleKernel(t, "fir4", clusters)
		a, err := Analyze(s)
		if err != nil {
			t.Fatalf("%d clusters: %v", clusters, err)
		}
		carried := 0
		s.Graph().Edges(func(e ddg.Edge) {
			if e.Carries {
				carried++
			}
		})
		n := 0
		for _, f := range a.Files {
			for _, q := range f.Queues {
				n += len(q)
			}
		}
		if n != carried {
			t.Errorf("%d clusters: %d lifetimes allocated, want %d", clusters, n, carried)
		}
		if a.TotalQueues() < 1 {
			t.Errorf("%d clusters: no queues", clusters)
		}
	}
}

func TestIMSAllocationWorksToo(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelSAXPY(), machine.DefaultLatencies())
	s, _, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(2), ims.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range a.Files {
		if f.Kind != LRF {
			t.Error("unclustered machine must only use the central file")
		}
	}
}
