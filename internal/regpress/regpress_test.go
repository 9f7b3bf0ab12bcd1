package regpress

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

func TestAnalyzeSimpleChain(t *testing.T) {
	// x(load)@0 -> m(mul)@2 -> s(store)@5 at II=3.
	// x lives [2,2]; m lives [5,5]: one value at a time, but they
	// occupy different slots (2 mod 3 = 2, 5 mod 3 = 2) — same slot!
	// So MaxLives = 2.
	k, err := perfect.KernelByName("dot")
	if err != nil {
		t.Fatal(err)
	}
	g := ddg.FromLoop(k, lat())
	s, _, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(1), ims.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Analyze(s)
	if p.MaxLives < 1 {
		t.Fatalf("MaxLives = %d", p.MaxLives)
	}
	if len(p.PerCluster) != 1 || p.PerCluster[0] != p.MaxLives {
		t.Fatalf("single-cluster pressure mismatch: %+v", p)
	}
}

func TestPortCounts(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelSAXPY(), lat())
	s, _, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(4), ims.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Analyze(s)
	if p.ReadPorts != 24 || p.WritePorts != 12 {
		t.Errorf("central ports = %d/%d, want 24/12 for 12 FUs", p.ReadPorts, p.WritePorts)
	}
	if p.ClusterReadPorts != 24 || p.ClusterWritePorts != 12 {
		t.Errorf("unclustered machine: per-cluster ports must equal central (%d/%d)",
			p.ClusterReadPorts, p.ClusterWritePorts)
	}
}

// The paper's architectural claim (§1-2): clustering divides both the
// storage and the ports each register file must provide.
func TestClusteringDividesPressure(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 50)
	var centralLives, worstClusterLives int
	clusters := 4
	for _, l := range loops {
		gU := ddg.FromLoop(l, lat())
		sU, _, err := ims.ScheduleCtx(context.Background(), gU, machine.Unclustered(clusters), ims.Options{})
		if err != nil {
			t.Fatal(err)
		}
		centralLives += Analyze(sU).MaxLives

		gC := ddg.FromLoop(l, lat())
		ddg.InsertCopies(gC, ddg.MaxUses)
		sC, _, err := core.ScheduleCtx(context.Background(), gC, machine.Clustered(clusters), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		worstClusterLives += Analyze(sC).MaxPerCluster()
	}
	if worstClusterLives >= centralLives {
		t.Errorf("worst per-cluster lives %d not below central %d — clustering should divide storage",
			worstClusterLives, centralLives)
	}
	t.Logf("4 clusters, 50 loops: central MaxLives %d vs worst-cluster %d (%.0f%%)",
		centralLives, worstClusterLives, 100*float64(worstClusterLives)/float64(centralLives))

	gC := ddg.FromLoop(loops[0], lat())
	ddg.InsertCopies(gC, ddg.MaxUses)
	sC, _, err := core.ScheduleCtx(context.Background(), gC, machine.Clustered(clusters), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Analyze(sC)
	if p.ClusterReadPorts >= p.ReadPorts {
		t.Errorf("cluster RF ports %d not below central %d", p.ClusterReadPorts, p.ReadPorts)
	}
}

func TestPressureNonNegativeAcrossMachines(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 20) {
		for _, c := range []int{1, 2, 6} {
			g := ddg.FromLoop(l, lat())
			if c >= 2 {
				ddg.InsertCopies(g, ddg.MaxUses)
			}
			s, _, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(c), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatal(err)
			}
			p := Analyze(s)
			if p.MaxLives < 1 {
				t.Errorf("%s on %d clusters: MaxLives %d", l.Name, c, p.MaxLives)
			}
			sum := 0
			for _, n := range p.PerCluster {
				sum += n
			}
			if sum < p.MaxLives {
				// Per-cluster peaks may happen at different slots, so
				// their sum can only exceed or equal the global peak.
				t.Errorf("%s on %d clusters: per-cluster sum %d below MaxLives %d", l.Name, c, sum, p.MaxLives)
			}
		}
	}
}
