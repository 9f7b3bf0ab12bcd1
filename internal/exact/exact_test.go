package exact

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func mustParse(t *testing.T, src string) *loop.Loop {
	t.Helper()
	l, err := loop.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestExactOnCorpusSample schedules a sample of the synthetic corpus
// on both unclustered machine sizes and checks the core contract:
// the result verifies, II is within [MII, IMS's II] — never above the
// heuristic, since the first SAT answer of the upward II search is the
// optimum.
func TestExactOnCorpusSample(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 25)
	lat := machine.DefaultLatencies()
	for _, c := range []int{1, 2} {
		m := machine.Unclustered(c)
		for _, l := range loops {
			g := ddg.FromLoop(l, lat)
			s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Errorf("%s on %s: invalid schedule: %v", l.Name, m.Name, err)
			}
			if st.II < st.MII {
				t.Errorf("%s on %s: II %d below MII %d", l.Name, m.Name, st.II, st.MII)
			}
			_, ist, err := ims.ScheduleCtx(context.Background(), g, m, ims.Options{})
			if err != nil {
				t.Fatalf("%s on %s: ims: %v", l.Name, m.Name, err)
			}
			if st.II > ist.II {
				t.Errorf("%s on %s: exact II %d worse than IMS II %d — optimality broken",
					l.Name, m.Name, st.II, ist.II)
			}
		}
	}
}

// TestExactRecurrenceBound: a loop whose MII is recurrence-limited
// must schedule exactly at that bound.
func TestExactRecurrenceBound(t *testing.T) {
	l := mustParse(t, `loop rec trip 10
v0 = load
v1 = mul v0, v1@1
vout = store v1
`)
	g := ddg.FromLoop(l, machine.DefaultLatencies())
	m := machine.Unclustered(1)
	s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3; st.MII != want || st.II != want { // mul latency 3, distance 1
		t.Errorf("MII=%d II=%d, want both %d (recurrence bound)", st.MII, st.II, want)
	}
	if err := schedule.Verify(s); err != nil {
		t.Error(err)
	}
}

// TestExactResourceBound: eight adds on one adder must yield II = 8
// with every add in a distinct modulo slot.
func TestExactResourceBound(t *testing.T) {
	l := mustParse(t, `loop res trip 10
v0 = load
v1 = add v0
v2 = add v0
v3 = add v0
v4 = add v0
v5 = add v0
v6 = add v0
v7 = add v0
v8 = add v0
vout = store v1
`)
	g := ddg.FromLoop(l, machine.DefaultLatencies())
	m := machine.Unclustered(1)
	s, st, err := ScheduleCtx(context.Background(), g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.II != 8 {
		t.Errorf("II = %d, want 8 (eight adds, one adder)", st.II)
	}
	seen := make([]bool, st.II)
	s.Each(func(n int, p schedule.Placement) {
		if s.Graph().Node(n).Class != machine.Add {
			return
		}
		slot := p.Time % st.II
		if seen[slot] {
			t.Errorf("modulo slot %d double-booked on the single adder", slot)
		}
		seen[slot] = true
	})
}

// TestExactDeterminism: the same input twice yields bit-identical
// placements — the solver and encoder are deterministic by design.
func TestExactDeterminism(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 5)
	lat := machine.DefaultLatencies()
	m := machine.Unclustered(1)
	for _, l := range loops {
		g := ddg.FromLoop(l, lat)
		s1, st1, err := ScheduleCtx(context.Background(), g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s2, st2, err := ScheduleCtx(context.Background(), g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 {
			t.Errorf("%s: stats differ across identical runs: %+v vs %+v", l.Name, st1, st2)
		}
		s1.Each(func(n int, p1 schedule.Placement) {
			p2, ok := s2.At(n)
			if !ok || p1 != p2 {
				t.Errorf("%s: node %d placed at %+v vs %+v", l.Name, n, p1, p2)
			}
		})
	}
}

// TestExactBudgetExhaustion: a one-decision budget cannot schedule a
// loop with real mobility, and the failure must carry the driver's
// timeout signal (context.DeadlineExceeded).
func TestExactBudgetExhaustion(t *testing.T) {
	l := mustParse(t, `loop tight trip 10
v0 = load
v1 = add v0
v2 = add v1
v3 = load
v4 = add v3
v5 = add v4
v6 = add v2
vout = store v6
`)
	g := ddg.FromLoop(l, machine.DefaultLatencies())
	m := machine.Unclustered(1)
	_, _, err := ScheduleCtx(context.Background(), g, m, Options{MaxDecisions: 1})
	if err == nil {
		t.Fatal("one-decision budget scheduled a multi-op loop")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestExactCancel: an already-canceled context aborts the search with
// an error wrapping context.Canceled.
func TestExactCancel(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 1)
	g := ddg.FromLoop(loops[0], machine.DefaultLatencies())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ScheduleCtx(ctx, g, machine.Unclustered(1), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactRejectsClustered: exact handles pooled machines only;
// clustered configurations must be refused, not mis-scheduled.
func TestExactRejectsClustered(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 1)
	g := ddg.FromLoop(loops[0], machine.DefaultLatencies())
	if _, _, err := ScheduleCtx(context.Background(), g, machine.Clustered(2), Options{}); err == nil {
		t.Fatal("clustered machine accepted")
	}
}

// TestExactIISweepAndDeepening covers the paths the pinned corpus
// never reaches: an optimum above MII, so the search refutes MII and
// moves on, and horizon deepening up to the UNSAT-at-Tmax proof that
// refutes it. Both loops are recurrence- and adder-tight on
// Unclustered(1), and each optimum is MII + 1.
func TestExactIISweepAndDeepening(t *testing.T) {
	for _, tc := range []struct {
		src     string
		mii, ii int
	}{
		{`loop f537 trip 10
v0 = load
v1 = add v0
v2 = add v0, v2@1
v3 = mul v1, v4@2
v4 = mul v3
vout = store v4
`, 3, 4},
		{`loop f145 trip 10
v0 = load
v1 = add v0
v2 = add v0, v3@1
v3 = mul v2, v4@1
v4 = add v3, v4@1
v5 = mul v1
vout = store v5
`, 4, 5},
	} {
		l := mustParse(t, tc.src)
		g := ddg.FromLoop(l, machine.DefaultLatencies())
		s, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(1), Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := schedule.Verify(s); err != nil {
			t.Errorf("%s: invalid schedule: %v", l.Name, err)
		}
		if st.MII != tc.mii || st.II != tc.ii {
			t.Errorf("%s: MII=%d II=%d, want MII=%d II=%d", l.Name, st.MII, st.II, tc.mii, tc.ii)
		}
		if st.IIsTried != 2 {
			t.Errorf("%s: IIsTried=%d, want 2 (MII refuted, MII+1 scheduled)", l.Name, st.IIsTried)
		}
		if st.Solves <= st.IIsTried {
			t.Errorf("%s: Solves=%d, want more than IIsTried=%d (refuting MII deepens the horizon)", l.Name, st.Solves, st.IIsTried)
		}
	}
}

// TestExactFirstHorizonDeepens: pc1393 of a fresh 1500-loop corpus is a
// realistic loop whose first probe at horizon C + 1 + II is UNSAT, so
// scheduling it at its MII takes a second, deeper solve.
func TestExactFirstHorizonDeepens(t *testing.T) {
	l := perfect.CorpusN(12345, 1394)[1393]
	if l.Name != "pc1393" {
		t.Fatalf("corpus loop 1393 is %s, want pc1393", l.Name)
	}
	g := ddg.FromLoop(l, machine.DefaultLatencies())
	s, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	if st.MII != 4 || st.II != 4 || st.IIsTried != 1 || st.Solves != 2 {
		t.Errorf("MII=%d II=%d IIsTried=%d Solves=%d, want MII=II=4, IIsTried=1, Solves=2", st.MII, st.II, st.IIsTried, st.Solves)
	}
}
