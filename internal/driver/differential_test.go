package driver

// Differential harness: every registered scheduler runs over one
// random corpus and the results are cross-checked against each other
// and against the graph-theoretic lower bound. This is the test the
// registry exists for — a new back-end registered in adapters.go is
// pulled in here with no test changes.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/perfect"
)

const (
	diffLoops = 50
	diffSeed  = perfect.DefaultSeed
)

var diffClusters = []int{1, 2, 4}

// TestDifferentialAllSchedulers schedules the corpus with every
// registered back-end on 1-, 2- and 4-cluster machines (clustered or
// unclustered per the back-end's family) and asserts that every
// schedule verifies and achieves II >= MII. The driver itself runs
// schedule.Verify, so a nil Result.Err certifies modulo-resource,
// dependence and communication feasibility.
func TestDifferentialAllSchedulers(t *testing.T) {
	loops := perfect.CorpusN(diffSeed, diffLoops)
	lat := machine.DefaultLatencies()
	for _, name := range Names() {
		sched, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range diffClusters {
			m := MachineFor(sched, c)
			jobs := make([]Job, len(loops))
			for i, l := range loops {
				jobs[i] = Job{Loop: l, Machine: m, Scheduler: name}
			}
			results := CompileAll(context.Background(), jobs, BatchOptions{})
			for i, r := range results {
				l := loops[i]
				if r.Err != nil {
					t.Errorf("%s/%s/%s: %v", l.Name, m.Name, name, r.Err)
					continue
				}
				if r.Stats.II < 1 || r.Stats.II < r.Stats.MII {
					t.Errorf("%s/%s/%s: II %d vs MII %d", l.Name, m.Name, name, r.Stats.II, r.Stats.MII)
				}
				// MII from the *pristine* graph is a lower bound for
				// every back-end: copy insertion and routed moves only
				// add constraints.
				mii, err := ddg.FromLoop(l, lat).MII(m)
				if err != nil {
					t.Fatal(err)
				}
				if r.Stats.II < mii {
					t.Errorf("%s/%s/%s: II %d below pristine MII %d", l.Name, m.Name, name, r.Stats.II, mii)
				}
			}
		}
	}
}

// TestDifferentialDMSWithinFactorOfIMS bounds the partitioning cost:
// on every corpus loop and cluster count, the II DMS achieves on the
// clustered machine must stay within 2x the II the centralized IMS
// baseline achieves on the equivalent unclustered machine. The paper's
// Figure 4 reports increases far below this bound (typically +1 II on
// under 20% of loops); the factor only guards against regressions that
// would invalidate the comparison, not against heuristic noise.
func TestDifferentialDMSWithinFactorOfIMS(t *testing.T) {
	loops := perfect.CorpusN(diffSeed, diffLoops)
	for _, c := range diffClusters {
		var jobs []Job
		for _, l := range loops {
			jobs = append(jobs,
				Job{Loop: l, Machine: machine.Clustered(c), Scheduler: "dms"},
				Job{Loop: l, Machine: machine.Unclustered(c), Scheduler: "ims"},
			)
		}
		results := CompileAll(context.Background(), jobs, BatchOptions{})
		for i := 0; i < len(results); i += 2 {
			dms, ims := results[i], results[i+1]
			if dms.Err != nil {
				t.Fatalf("%v", dms.Err)
			}
			if ims.Err != nil {
				t.Fatalf("%v", ims.Err)
			}
			if dms.Stats.II > 2*ims.Stats.II {
				t.Errorf("%s on %d clusters: DMS II %d more than 2x IMS II %d",
					dms.Job.Loop.Name, c, dms.Stats.II, ims.Stats.II)
			}
		}
	}
}

// TestDifferentialUsefulOpsAgree cross-checks the dynamic accounting:
// for one loop, every back-end must agree on the useful-operation
// count (copies and moves are overhead and excluded, so the count is a
// property of the loop, not the scheduler).
func TestDifferentialUsefulOpsAgree(t *testing.T) {
	loops := perfect.CorpusN(diffSeed, 10)
	for _, l := range loops {
		want := -1
		for _, name := range Names() {
			sched, _ := Get(name)
			r := Compile(context.Background(), Job{Loop: l, Machine: MachineFor(sched, 2), Scheduler: name}, BatchOptions{})
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", l.Name, name, r.Err)
			}
			if want == -1 {
				want = r.Metrics.Useful
			} else if r.Metrics.Useful != want {
				t.Errorf("%s/%s: %d useful ops, others report %d", l.Name, name, r.Metrics.Useful, want)
			}
		}
	}
}

// TestDifferentialSummary logs the II totals per back-end so a failing
// differential run can be triaged from the test output alone.
func TestDifferentialSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("summary is informational")
	}
	loops := perfect.CorpusN(diffSeed, diffLoops)
	for _, name := range Names() {
		sched, _ := Get(name)
		line := ""
		for _, c := range diffClusters {
			m := MachineFor(sched, c)
			jobs := make([]Job, len(loops))
			for i, l := range loops {
				jobs[i] = Job{Loop: l, Machine: m, Scheduler: name}
			}
			sum := 0
			for _, r := range CompileAll(context.Background(), jobs, BatchOptions{}) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				sum += r.Stats.II
			}
			line += fmt.Sprintf("  c%-2d IIsum=%-4d", c, sum)
		}
		t.Logf("%-9s%s", name, line)
	}
}
