package sms

import (
	"context"
	"testing"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/regpress"
	"repro/internal/schedule"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

func TestScheduleKernels(t *testing.T) {
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
			if st.II < st.MII {
				t.Fatalf("%s: II %d < MII %d", k.Name, st.II, st.MII)
			}
		}
	}
}

func TestScheduleCorpusSample(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 100) {
		g := ddg.FromLoop(l, lat())
		m := machine.Unclustered(3)
		s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		mii, _ := g.MII(m)
		if st.II < mii {
			t.Fatalf("%s: II %d < MII %d", l.Name, st.II, mii)
		}
	}
}

func TestRejectsClusteredMachine(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	if _, _, err := ScheduleCtx(context.Background(), g, machine.Clustered(2), Options{}); err == nil {
		t.Fatal("clustered machine accepted")
	}
}

func TestBackwardScansHappen(t *testing.T) {
	total := Stats{}
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 60) {
		g := ddg.FromLoop(l, lat())
		_, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(3), Options{})
		if err != nil {
			t.Fatal(err)
		}
		total.Forward += st.Forward
		total.Backward += st.Backward
	}
	if total.Backward == 0 {
		t.Fatal("no backward placements across 60 loops — the swing is dead code")
	}
	t.Logf("placements: %d forward, %d backward", total.Forward, total.Backward)
}

// SMS's reason to exist: close to IMS's II at lower register pressure.
func TestCompetitiveIIAndLowerPressure(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 80)
	m := machine.Unclustered(3)
	var iiWorse, iiBetter int
	var smsLives, imsLives int
	for _, l := range loops {
		g := ddg.FromLoop(l, lat())
		sIMS, stIMS, err := ims.ScheduleCtx(context.Background(), g, m, ims.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sSMS, stSMS, err := ScheduleCtx(context.Background(), g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stSMS.II > stIMS.II {
			iiWorse++
		}
		if stSMS.II < stIMS.II {
			iiBetter++
		}
		smsLives += regpress.Analyze(sSMS).MaxLives
		imsLives += regpress.Analyze(sIMS).MaxLives
	}
	t.Logf("II: SMS worse on %d, better on %d of %d; MaxLives total: SMS %d vs IMS %d",
		iiWorse, iiBetter, len(loops), smsLives, imsLives)
	if iiWorse > len(loops)/3 {
		t.Errorf("SMS lost the II race on %d/%d loops; it should be competitive", iiWorse, len(loops))
	}
	if smsLives > imsLives {
		t.Errorf("SMS total MaxLives %d exceeds IMS %d — lifetime sensitivity is not working", smsLives, imsLives)
	}
}

func TestOrderingCoversAllNodesOnce(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 50) {
		g := ddg.FromLoop(l, lat())
		order := ordering(g, g.RecMII(), nil)
		if len(order) != g.NumNodes() {
			t.Fatalf("%s: order has %d entries for %d nodes", l.Name, len(order), g.NumNodes())
		}
		seen := map[int]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("%s: node %d ordered twice", l.Name, n)
			}
			seen[n] = true
		}
	}
}
