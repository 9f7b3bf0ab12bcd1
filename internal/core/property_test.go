package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/lifetime"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
	"repro/internal/vliw"
)

// Random loops on random machine shapes: every DMS schedule must
// verify, respect its lower bound, and survive the full downstream
// pipeline (queue allocation + simulation against the untransformed
// reference).
func TestDMSPropertyRandomMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		l := perfect.Generate(rng, "p")
		clusters := 1 + rng.Intn(10)
		copyFUs := 1 + rng.Intn(2)
		m := machine.ClusteredWithCopyFUs(clusters, copyFUs)

		g := ddg.FromLoop(l, lat())
		if clusters >= 2 {
			ddg.InsertCopies(g, ddg.MaxUses)
		}
		s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
		if err != nil {
			t.Fatalf("trial %d (%d clusters, %d copy units): %v", trial, clusters, copyFUs, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.II < st.MII {
			t.Fatalf("trial %d: II %d < MII %d", trial, st.II, st.MII)
		}

		trip := 3 + rng.Intn(20)
		gold := vliw.NewReference(ddg.FromLoop(l, lat()), trip).StoreTrace()
		alloc, err := lifetime.Analyze(s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := vliw.Simulate(s, alloc, trip)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for key, want := range gold {
			if res.Stores[key] != want {
				t.Fatalf("trial %d: store %s diverged", trial, key)
			}
		}
	}
}

// A single-operation loop is the smallest valid input.
func TestDMSSingleOpLoop(t *testing.T) {
	b := loop.NewBuilder("tiny")
	b.Load("x")
	l := b.MustBuild()
	for _, c := range []int{1, 4} {
		s, st, err := ScheduleCtx(context.Background(), ddg.FromLoop(l, lat()), machine.Clustered(c), Options{})
		if err != nil {
			t.Fatalf("%d clusters: %v", c, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatal(err)
		}
		if st.II != 1 {
			t.Errorf("%d clusters: II = %d, want 1", c, st.II)
		}
	}
}

// More copy units must never hurt: II with 2 copy units per cluster is
// at most the II with 1 for every loop in the sample.
func TestExtraCopyUnitsNeverHurt(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		g1 := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g1, ddg.MaxUses)
		_, st1, err := ScheduleCtx(context.Background(), g1, machine.Clustered(8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		g2 := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g2, ddg.MaxUses)
		_, st2, err := ScheduleCtx(context.Background(), g2, machine.ClusteredWithCopyFUs(8, 2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Not guaranteed per loop (heuristic search), but the bound
		// below (MII) is: extra units can only relax ResMII.
		if st2.MII > st1.MII {
			t.Errorf("%s: MII rose from %d to %d with an extra copy unit", l.Name, st1.MII, st2.MII)
		}
	}
}
