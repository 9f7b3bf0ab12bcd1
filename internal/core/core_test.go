package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

// clusteredGraph applies the paper's pipeline for clustered machines:
// copy insertion for C ≥ 2, none for the degenerate 1-cluster machine.
func clusteredGraph(l *loop.Loop, clusters int) *ddg.Graph {
	g := ddg.FromLoop(l, lat())
	if clusters >= 2 {
		ddg.InsertCopies(g, ddg.MaxUses)
	}
	return g
}

func TestDMSOneClusterMatchesIMS(t *testing.T) {
	for _, k := range perfect.Kernels() {
		g := ddg.FromLoop(k, lat())
		_, imsStats, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(1), ims.Options{})
		if err != nil {
			t.Fatalf("%s ims: %v", k.Name, err)
		}
		s, dmsStats, err := ScheduleCtx(context.Background(), clusteredGraph(k, 1), machine.Clustered(1), Options{})
		if err != nil {
			t.Fatalf("%s dms: %v", k.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if dmsStats.II != imsStats.II {
			t.Errorf("%s: DMS II %d != IMS II %d on the degenerate 1-cluster machine",
				k.Name, dmsStats.II, imsStats.II)
		}
	}
}

func TestDMSAllKernelsAllClusterCounts(t *testing.T) {
	for _, k := range perfect.Kernels() {
		for c := 1; c <= 10; c++ {
			g := clusteredGraph(k, c)
			m := machine.Clustered(c)
			s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s on %d clusters: %v", k.Name, c, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s on %d clusters: %v", k.Name, c, err)
			}
			if st.II < st.MII {
				t.Fatalf("%s on %d clusters: II %d < MII %d", k.Name, c, st.II, st.MII)
			}
		}
	}
}

func TestDMSCorpusSample(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 80)
	var s1, s2, s3, chains int
	for _, l := range loops {
		for _, c := range []int{2, 4, 8} {
			g := clusteredGraph(l, c)
			m := machine.Clustered(c)
			s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s on %d clusters: %v", l.Name, c, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s on %d clusters: %v", l.Name, c, err)
			}
			s1 += st.Strategy1
			s2 += st.Strategy2
			s3 += st.Strategy3
			chains += st.ChainsBuilt
		}
	}
	if s1 == 0 {
		t.Error("strategy 1 never placed an operation")
	}
	t.Logf("placements by strategy: s1=%d s2=%d s3=%d, chains built=%d", s1, s2, s3, chains)
}

func TestDMSBuildsChainsOnWideRings(t *testing.T) {
	// On 8 clusters some loops must need indirect communication; if no
	// chain is ever built, strategy 2 is dead code.
	loops := perfect.CorpusN(perfect.DefaultSeed, 120)
	chains := 0
	for _, l := range loops {
		g := clusteredGraph(l, 8)
		_, st, err := ScheduleCtx(context.Background(), g, machine.Clustered(8), Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		chains += st.ChainsBuilt
	}
	if chains == 0 {
		t.Fatal("no chains built across 120 loops on 8 clusters")
	}
}

func TestDMSFinalGraphMovesAreWellFormed(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 60)
	movesSeen := 0
	for _, l := range loops {
		g := clusteredGraph(l, 6)
		s, _, err := ScheduleCtx(context.Background(), g, machine.Clustered(6), Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		fg := s.Graph()
		fg.Nodes(func(n ddg.Node) {
			if n.Kind != ddg.MoveNode {
				return
			}
			movesSeen++
			in, out := fg.In(n.ID), fg.Out(n.ID)
			if len(in) != 1 || len(out) != 1 {
				t.Fatalf("%s: move %s has %d in / %d out edges", l.Name, n.Name, len(in), len(out))
			}
			if !in[0].Carries || !out[0].Carries {
				t.Fatalf("%s: move %s has non-carrying edges", l.Name, n.Name)
			}
			// A move must sit between its neighbours on the ring.
			mp, _ := s.At(n.ID)
			fp, _ := s.At(in[0].From)
			tp, _ := s.At(out[0].To)
			m := s.Machine()
			if !m.Adjacent(fp.Cluster, mp.Cluster) || !m.Adjacent(mp.Cluster, tp.Cluster) {
				t.Fatalf("%s: move %s not adjacent to both neighbours", l.Name, n.Name)
			}
		})
	}
	t.Logf("moves surviving in final graphs: %d", movesSeen)
}

func TestDMSDeterministic(t *testing.T) {
	l := perfect.CorpusN(perfect.DefaultSeed, 30)[29]
	run := func() string {
		g := clusteredGraph(l, 6)
		s, st, err := ScheduleCtx(context.Background(), g, machine.Clustered(6), Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("II=%d ", st.II)
		for _, id := range s.Graph().NodeIDs() {
			p, _ := s.At(id)
			out += fmt.Sprintf("%d@%d.%d ", id, p.Time, p.Cluster)
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic schedules:\n%s\n%s", a, b)
	}
}

func TestDMSDisableChainsDegradesGracefully(t *testing.T) {
	// Without strategy 2, DMS regresses to the authors' IPPS'98
	// single-phase scheme, which "cannot consider communication between
	// indirectly-connected clusters" and is "inappropriate for larger
	// configurations". Some loops legitimately fail to schedule on a
	// 6-ring: forced placements keep evicting each other. Failures are
	// the expected finding; successes must still verify, and full DMS
	// must handle every loop the ablation gives up on.
	loops := perfect.CorpusN(perfect.DefaultSeed, 40)
	worse, failed := 0, 0
	for _, l := range loops {
		m := machine.Clustered(6)
		sChains, stChains, err := ScheduleCtx(context.Background(), clusteredGraph(l, 6), m, Options{})
		if err != nil {
			t.Fatalf("%s: full DMS failed: %v", l.Name, err)
		}
		if err := schedule.Verify(sChains); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		sNo, stNo, err := ScheduleCtx(context.Background(), clusteredGraph(l, 6), m, Options{DisableChains: true})
		if err != nil {
			failed++
			continue
		}
		if err := schedule.Verify(sNo); err != nil {
			t.Fatalf("%s (no chains): %v", l.Name, err)
		}
		if stNo.II > stChains.II {
			worse++
		}
	}
	if failed == 40 {
		t.Fatal("chain-less ablation never scheduled anything")
	}
	t.Logf("disabling chains on 6 clusters: %d/40 unschedulable, II worse on %d of the rest", failed, worse)
}

func TestDMSOneDirectionStillValid(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 30) {
		s, _, err := ScheduleCtx(context.Background(), clusteredGraph(l, 8), machine.Clustered(8), Options{OneDirectionOnly: true})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

func TestDMSUnrolledLoops(t *testing.T) {
	for _, k := range perfect.Kernels()[:6] {
		u, err := loop.Unroll(k, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{4, 8} {
			s, st, err := ScheduleCtx(context.Background(), clusteredGraph(u, c), machine.Clustered(c), Options{})
			if err != nil {
				t.Fatalf("%s x4 on %d clusters: %v", k.Name, c, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s x4 on %d clusters: %v", k.Name, c, err)
			}
			if st.II < st.MII {
				t.Fatalf("%s x4: II %d < MII %d", k.Name, st.II, st.MII)
			}
		}
	}
}

func TestDMSOverheadVersusUnclusteredIsBounded(t *testing.T) {
	// The core claim of Figure 4: most loops suffer no II increase from
	// partitioning. On a modest sample, require that at 4 clusters at
	// least half the loops match the unclustered II (the paper reports
	// >80% on the full corpus).
	loops := perfect.CorpusN(perfect.DefaultSeed, 60)
	matched, total := 0, 0
	for _, l := range loops {
		g := ddg.FromLoop(l, lat())
		_, imsStats, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(4), ims.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		_, dmsStats, err := ScheduleCtx(context.Background(), clusteredGraph(l, 4), machine.Clustered(4), Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		total++
		if dmsStats.II <= imsStats.II {
			matched++
		}
	}
	if matched*2 < total {
		t.Errorf("only %d/%d loops kept the unclustered II at 4 clusters", matched, total)
	}
	t.Logf("II preserved on %d/%d loops at 4 clusters", matched, total)
}

func TestDMSTightBudget(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 30) {
		s, _, err := ScheduleCtx(context.Background(), clusteredGraph(l, 5), machine.Clustered(5), Options{BudgetRatio: 1})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

func TestDMSRejectsInvalidMachine(t *testing.T) {
	g := clusteredGraph(perfect.KernelDot(), 2)
	bad := &machine.Machine{Name: "bad", Clusters: 0, Lat: lat()}
	if _, _, err := ScheduleCtx(context.Background(), g, bad, Options{}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestDMSCopyOpsNeedCopyUnits(t *testing.T) {
	// Copy-inserted graphs cannot schedule on machines without copy
	// units; the error must be reported, not panicked.
	l := fanOutLoop(t, 6)
	g := ddg.FromLoop(l, lat())
	if n := ddg.InsertCopies(g, 2); n == 0 {
		t.Fatal("test loop needs copies")
	}
	if _, _, err := ScheduleCtx(context.Background(), g, machine.Unclustered(2), Options{}); err == nil {
		t.Fatal("copy ops scheduled on a machine without copy units")
	}
}

func fanOutLoop(t testing.TB, uses int) *loop.Loop {
	t.Helper()
	b := loop.NewBuilder("fan")
	x := b.Load("x")
	prev := loop.ID(-1)
	for i := 0; i < uses; i++ {
		id := b.Add(fmt.Sprintf("u%d", i), x)
		if prev >= 0 {
			id = b.Add(fmt.Sprintf("m%d", i), prev, id)
		}
		prev = id
	}
	b.Store("s", prev)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}
