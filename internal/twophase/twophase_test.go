package twophase

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
	"repro/internal/vliw"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

func clusteredGraph(tb testing.TB, name string, clusters int) *ddg.Graph {
	tb.Helper()
	k, err := perfect.KernelByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	g := ddg.FromLoop(k, lat())
	if clusters >= 2 {
		ddg.InsertCopies(g, ddg.MaxUses)
	}
	return g
}

func TestScheduleKernels(t *testing.T) {
	for _, k := range perfect.Kernels() {
		for _, c := range []int{1, 2, 4, 8} {
			g := ddg.FromLoop(k, lat())
			if c >= 2 {
				ddg.InsertCopies(g, ddg.MaxUses)
			}
			s, st, err := ScheduleCtx(context.Background(), g, machine.Clustered(c), Options{})
			if err != nil {
				t.Fatalf("%s on %d clusters: %v", k.Name, c, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s on %d clusters: %v", k.Name, c, err)
			}
			if st.II < st.MII {
				t.Fatalf("%s: II %d < MII %d", k.Name, st.II, st.MII)
			}
		}
	}
}

func TestPartitionBalancesLoad(t *testing.T) {
	g := clusteredGraph(t, "fir4", 4)
	m := machine.Clustered(4)
	assign := partition(g, m, Options{}, g.RecMII())
	load := make([][]int, m.Clusters)
	for c := range load {
		load[c] = make([]int, machine.NumFUKinds)
	}
	g.Nodes(func(n ddg.Node) {
		c, ok := assign[n.ID]
		if !ok {
			t.Fatalf("node %d unassigned", n.ID)
		}
		load[c][n.Class.FU()]++
	})
	counts := g.CountKinds()
	for k := machine.FUKind(0); int(k) < machine.NumFUKinds; k++ {
		share := (counts[k]+m.Clusters-1)/m.Clusters + 1 // cap + slack
		for c := range load {
			if load[c][k] > share {
				t.Errorf("cluster %d holds %d %v ops, cap %d", c, load[c][k], k, share)
			}
		}
	}
}

func TestPartitionSingleCluster(t *testing.T) {
	g := clusteredGraph(t, "dot", 1)
	assign := partition(g, machine.Clustered(1), Options{}, g.RecMII())
	for n, c := range assign {
		if c != 0 {
			t.Fatalf("node %d in cluster %d on a 1-cluster machine", n, c)
		}
	}
}

func TestRoutedGraphHasNoFarEdges(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 30) {
		g := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g, ddg.MaxUses)
		m := machine.Clustered(8)
		s, _, err := ScheduleCtx(context.Background(), g.Clone(), m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		// Verify covers communication; this re-checks it explicitly.
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

// TestPlacementsKeepAssignedCluster pins the two phases together:
// every node the schedule places, routed moves included, sits in the
// cluster partition and route assigned it. schedule.Verify checks
// resources and dependences, not the partition.
func TestPlacementsKeepAssignedCluster(t *testing.T) {
	for _, k := range perfect.Kernels() {
		for _, c := range []int{2, 4, 8} {
			g := clusteredGraph(t, k.Name, c)
			m := machine.Clustered(c)
			work := g.Clone()
			assign := partition(work, m, Options{}, work.RecMII())
			route(work, m, assign)

			s, _, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s on %d clusters: %v", k.Name, c, err)
			}
			if got, want := s.Graph().NumNodes(), work.NumNodes(); got != want {
				t.Fatalf("%s on %d clusters: scheduled graph has %d nodes, routed graph %d", k.Name, c, got, want)
			}
			s.Graph().Nodes(func(n ddg.Node) {
				p, ok := s.At(n.ID)
				if !ok {
					t.Fatalf("%s on %d clusters: node %s unplaced", k.Name, c, n.Name)
				}
				if want, ok := assign[n.ID]; !ok || p.Cluster != want {
					t.Errorf("%s on %d clusters: node %s in cluster %d, assigned %d (assigned: %v)", k.Name, c, n.Name, p.Cluster, want, ok)
				}
			})
		}
	}
}

func TestSemanticsPreserved(t *testing.T) {
	for _, name := range []string{"fir4", "iir", "cmul"} {
		k, _ := perfect.KernelByName(name)
		trip := 20
		gold := vliw.NewReference(ddg.FromLoop(k, lat()), trip).StoreTrace()
		g := clusteredGraph(t, name, 6)
		s, _, err := ScheduleCtx(context.Background(), g, machine.Clustered(6), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alloc, err := lifetime.Analyze(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := vliw.Simulate(s, alloc, trip)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for key, want := range gold {
			if res.Stores[key] != want {
				t.Fatalf("%s: store %s diverged", name, key)
			}
		}
	}
}

// The paper's thesis: deciding the partition before scheduling loses
// to the integrated approach. On a corpus sample the two-phase II must
// be at least the DMS II for the vast majority of loops and strictly
// worse for a meaningful share.
func TestTwoPhaseLosesToDMS(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 60)
	var dmsBetter, tpBetter, equal int
	for _, l := range loops {
		m := machine.Clustered(6)
		g1 := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g1, ddg.MaxUses)
		_, dmsStats, err := core.ScheduleCtx(context.Background(), g1, m, core.Options{})
		if err != nil {
			t.Fatalf("%s dms: %v", l.Name, err)
		}
		g2 := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g2, ddg.MaxUses)
		_, tpStats, err := ScheduleCtx(context.Background(), g2, m, Options{})
		if err != nil {
			t.Fatalf("%s twophase: %v", l.Name, err)
		}
		switch {
		case tpStats.II > dmsStats.II:
			dmsBetter++
		case tpStats.II < dmsStats.II:
			tpBetter++
		default:
			equal++
		}
	}
	t.Logf("6 clusters, 60 loops: DMS better on %d, equal on %d, two-phase better on %d",
		dmsBetter, equal, tpBetter)
	if dmsBetter <= tpBetter {
		t.Errorf("two-phase baseline beats DMS (%d vs %d) — the integrated scheduler should win",
			tpBetter, dmsBetter)
	}
}

func TestStatsAndCommCost(t *testing.T) {
	g := clusteredGraph(t, "cmul", 8)
	_, st, err := ScheduleCtx(context.Background(), g, machine.Clustered(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.IIsTried < 1 || st.Placements < g.NumNodes() {
		t.Errorf("implausible stats: %+v", st)
	}
	if st.CommCost < 0 || st.MovesInserted < 0 {
		t.Errorf("negative accounting: %+v", st)
	}
}

func TestRefinementReducesCommCost(t *testing.T) {
	worse, better := 0, 0
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		g := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g, ddg.MaxUses)
		m := machine.Clustered(8)
		a := commCost(g, m, partition(g, m, Options{RefinementPasses: 1}, g.RecMII()))
		b := commCost(g, m, partition(g, m, Options{RefinementPasses: 4}, g.RecMII()))
		if b > a {
			worse++
		}
		if b < a {
			better++
		}
	}
	if worse > better {
		t.Errorf("extra refinement passes made partitions worse on %d loops, better on %d", worse, better)
	}
}
