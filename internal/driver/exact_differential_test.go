package driver

// Differential harness for the exact SAT back-end and the portfolio
// meta-scheduler. The exact optimum on the pooled single-cluster
// relaxation is a *certified* lower bound for every back-end at the
// equivalent cluster count (dropping the cluster partition and the
// inserted copies only relaxes the problem), so unlike the MII bound
// in differential_test.go it also catches heuristics that silently
// leave II on the table. The portfolio tests pin down the race
// contract: never worse than dms alone, loser accounting adds up, and
// the winning entrant's schedule is returned byte-identical.

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfect"
)

// TestDifferentialExactCertifiesLowerBound runs the exact scheduler
// over the full differential corpus at every cluster count — it must
// terminate within its conflict budget on every loop — and checks that
// no heuristic back-end ever reports an II below the certified
// optimum of the equivalent pooled machine.
func TestDifferentialExactCertifiesLowerBound(t *testing.T) {
	loops := perfect.CorpusN(diffSeed, diffLoops)
	for _, c := range diffClusters {
		// Certified optima on the pooled relaxation of c clusters.
		exactJobs := make([]Job, len(loops))
		for i, l := range loops {
			exactJobs[i] = Job{Loop: l, Machine: machine.Unclustered(c), Scheduler: "exact"}
		}
		optima := make([]int, len(loops))
		for i, r := range CompileAll(context.Background(), exactJobs, BatchOptions{}) {
			if r.Err != nil {
				t.Fatalf("%s/%d clusters: exact did not terminate within budget: %v",
					loops[i].Name, c, r.Err)
			}
			if !r.Stats.ProvedOptimal || r.Stats.OptimalII != r.Stats.II {
				t.Fatalf("%s/%d clusters: exact result not certified (II %d, optimal %d, proved %v)",
					loops[i].Name, c, r.Stats.II, r.Stats.OptimalII, r.Stats.ProvedOptimal)
			}
			if r.Stats.II < r.Stats.MII {
				t.Fatalf("%s/%d clusters: certified II %d below MII %d",
					loops[i].Name, c, r.Stats.II, r.Stats.MII)
			}
			optima[i] = r.Stats.II
		}
		// Every heuristic must sit on or above the certified bound.
		for _, name := range Names() {
			if name == "exact" {
				continue
			}
			sched, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m := MachineFor(sched, c)
			jobs := make([]Job, len(loops))
			for i, l := range loops {
				jobs[i] = Job{Loop: l, Machine: m, Scheduler: name}
			}
			for i, r := range CompileAll(context.Background(), jobs, BatchOptions{}) {
				if r.Err != nil {
					t.Fatalf("%s/%s/%d clusters: %v", loops[i].Name, name, c, r.Err)
				}
				if r.Stats.II < optima[i] {
					t.Errorf("%s/%s/%d clusters: II %d beats certified optimum %d — bound or scheduler is wrong",
						loops[i].Name, name, c, r.Stats.II, optima[i])
				}
			}
		}
	}
}

// TestDifferentialPortfolioNeverWorseThanDMS races the portfolio over
// the corpus and checks the contract against a standalone dms run on
// the same machine: the portfolio II never exceeds the dms II, its
// win/loss/cancel counters partition the two entrants with exactly one
// winner, a proved outcome carries a consistent non-negative gap, and
// the returned schedule is byte-identical to the winning back-end's
// own output.
func TestDifferentialPortfolioNeverWorseThanDMS(t *testing.T) {
	loops := perfect.CorpusN(diffSeed, diffLoops)
	for _, c := range diffClusters {
		m := machine.Clustered(c)
		jobs := make([]Job, 0, 2*len(loops))
		for _, l := range loops {
			jobs = append(jobs,
				Job{Loop: l, Machine: m, Scheduler: "portfolio"},
				Job{Loop: l, Machine: m, Scheduler: "dms"},
			)
		}
		results := CompileAll(context.Background(), jobs, BatchOptions{})
		for i := 0; i < len(results); i += 2 {
			pf, dms := results[i], results[i+1]
			l := loops[i/2]
			if pf.Err != nil {
				t.Fatalf("%s/portfolio/%d clusters: %v", l.Name, c, pf.Err)
			}
			if dms.Err != nil {
				t.Fatalf("%s/dms/%d clusters: %v", l.Name, c, dms.Err)
			}
			if pf.Stats.II > dms.Stats.II {
				t.Errorf("%s/%d clusters: portfolio II %d worse than dms II %d",
					l.Name, c, pf.Stats.II, dms.Stats.II)
			}
			winner := checkPortfolioCounters(t, l.Name, c, pf.Stats)
			if winner == "exact" && c > 1 {
				t.Errorf("%s/%d clusters: bound-only exact entrant won the race", l.Name, c)
			}
			if pf.Stats.ProvedOptimal {
				gap, ok := pf.Stats.Extra["gap"]
				if !ok || gap != pf.Stats.II-pf.Stats.OptimalII || gap < 0 {
					t.Errorf("%s/%d clusters: proved outcome with inconsistent gap %d (ok %v, II %d, optimal %d)",
						l.Name, c, gap, ok, pf.Stats.II, pf.Stats.OptimalII)
				}
			} else if _, ok := pf.Stats.Extra["gap"]; ok {
				t.Errorf("%s/%d clusters: gap reported without a proof", l.Name, c)
			}
			// Byte-identical to the winning back-end: both back-ends
			// are deterministic, so a standalone rerun on the entrant's
			// machine must reproduce the portfolio's schedule exactly.
			ref := dms
			if winner == "exact" {
				ref = Compile(context.Background(), Job{Loop: l, Machine: m, Scheduler: "exact"}, BatchOptions{})
				if ref.Err != nil {
					t.Fatalf("%s/exact/%d clusters: %v", l.Name, c, ref.Err)
				}
			}
			if got, want := pf.Schedule.String(), ref.Schedule.String(); got != want {
				t.Errorf("%s/%d clusters: portfolio schedule differs from winner %s:\ngot:\n%s\nwant:\n%s",
					l.Name, c, winner, got, want)
			}
		}
	}
}

// checkPortfolioCounters asserts that the won_/lost_/canceled_ flags
// partition the two entrants with exactly one winner and returns the
// winner's name.
func checkPortfolioCounters(t *testing.T, loop string, c int, st Stats) string {
	t.Helper()
	winner, accounted := "", 0
	for _, name := range []string{"dms", "exact"} {
		won := st.Extra["won_"+name]
		lost := st.Extra["lost_"+name]
		canceled := st.Extra["canceled_"+name]
		if won+lost+canceled != 1 {
			t.Errorf("%s/%d clusters: entrant %s accounted %d times (won %d, lost %d, canceled %d)",
				loop, c, name, won+lost+canceled, won, lost, canceled)
		}
		accounted += won + lost + canceled
		if won == 1 {
			if winner != "" {
				t.Errorf("%s/%d clusters: both entrants marked won", loop, c)
			}
			winner = name
		}
	}
	if winner == "" {
		t.Errorf("%s/%d clusters: no winner flagged in %v", loop, c, st.Extra)
	}
	if accounted != 2 {
		t.Errorf("%s/%d clusters: counters cover %d of 2 entrants", loop, c, accounted)
	}
	return winner
}
