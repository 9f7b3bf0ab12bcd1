package experiment

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
)

// The paper attributes every II increase at 2 and 3 clusters to the
// copy-insertion prepass: rings that small are fully connected, so no
// communication conflict can exist (§4). Verify the attribution: for
// every loop whose II rose under DMS, rescheduling WITHOUT the copy
// prepass must recover the unclustered II.
func TestFigure4CopyAttribution(t *testing.T) {
	lat := machine.DefaultLatencies()
	loops := perfect.CorpusN(perfect.DefaultSeed, 150)
	for _, clusters := range []int{2, 3} {
		increased, explained := 0, 0
		for _, l := range loops {
			_, ust, err := ims.ScheduleCtx(context.Background(), ddg.FromLoop(l, lat), machine.Unclustered(clusters), ims.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gCopies := ddg.FromLoop(l, lat)
			ddg.InsertCopies(gCopies, ddg.MaxUses)
			_, cst, err := core.ScheduleCtx(context.Background(), gCopies, machine.Clustered(clusters), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cst.II <= ust.II {
				continue
			}
			increased++
			// Same machine, no copy prepass: the overhead must vanish.
			_, nst, err := core.ScheduleCtx(context.Background(), ddg.FromLoop(l, lat), machine.Clustered(clusters), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if nst.II <= ust.II {
				explained++
			}
		}
		t.Logf("%d clusters: %d loops lost II, %d fully explained by copy insertion", clusters, increased, explained)
		if increased == 0 {
			continue
		}
		// Allow a little scheduler-heuristic noise, but the paper's
		// attribution must hold for the overwhelming majority.
		if explained*10 < increased*9 {
			t.Errorf("%d clusters: only %d/%d II increases explained by copies", clusters, explained, increased)
		}
	}
}

// At 4+ clusters communication conflicts become possible; make sure
// they actually occur (otherwise the ring topology is dead weight in
// the evaluation).
func TestCommunicationConflictsAppearAtFourClusters(t *testing.T) {
	lat := machine.DefaultLatencies()
	chains := 0
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 150) {
		g := ddg.FromLoop(l, lat)
		ddg.InsertCopies(g, ddg.MaxUses)
		_, st, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(4), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chains += st.ChainsBuilt
	}
	if chains == 0 {
		t.Error("no chains built at 4 clusters across 150 loops")
	}
}
