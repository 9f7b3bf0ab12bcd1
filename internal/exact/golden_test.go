package exact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

// goldenJob is one (loop, machine) pair of the golden set.
type goldenJob struct {
	g *ddg.Graph
	m *machine.Machine
}

// goldenJobs returns the golden set, the first 50 pinned-corpus loops
// on Unclustered(1/2/4), whose exact schedules testdata/golden.sha256
// pins.
func goldenJobs() []goldenJob {
	lat := machine.DefaultLatencies()
	var jobs []goldenJob
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 50) {
		g := ddg.FromLoop(l, lat)
		for _, c := range []int{1, 2, 4} {
			jobs = append(jobs, goldenJob{g: g, m: machine.Unclustered(c)})
		}
	}
	return jobs
}

// goldenLine renders one job's issue times, II and solver work. A
// changed line means a changed schedule or a changed search.
func goldenLine(j goldenJob, s *schedule.Schedule, st Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s ii=%d tried=%d solves=%d conflicts=%d decisions=%d propagations=%d t=",
		j.g.Name(), j.m.Name, st.II, st.IIsTried, st.Solves, st.Conflicts, st.Decisions, st.Propagations)
	for k, id := range j.g.NodeIDs() {
		p, _ := s.At(id)
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p.Time))
	}
	b.WriteByte('\n')
	return b.String()
}

// runGolden schedules jobs[k] for every k in order, spread over the
// given number of goroutines, and returns the lines indexed by job, so
// any visiting order hashes the same way.
func runGolden(t *testing.T, jobs []goldenJob, order []int, workers int) []string {
	t.Helper()
	lines := make([]string, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := next.Add(1) - 1; n < int64(len(order)); n = next.Add(1) - 1 {
				k := order[n]
				j := jobs[k]
				s, st, err := ScheduleCtx(context.Background(), j.g, j.m, Options{})
				if err != nil {
					t.Errorf("%s on %s: %v", j.g.Name(), j.m.Name, err)
					return
				}
				lines[k] = goldenLine(j, s, st)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return lines
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func wantGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestExactScheduleGolden pins every exact schedule and its solver
// statistics on the first 50 pinned-corpus loops × Unclustered(1/2/4)
// to a digest generated before solvers were pooled: reusing a solver
// across Schedule calls must not change a single issue time, II or
// work counter.
func TestExactScheduleGolden(t *testing.T) {
	jobs := goldenJobs()
	order := make([]int, len(jobs))
	for k := range order {
		order[k] = k
	}
	lines := runGolden(t, jobs, order, 1)
	if got, want := digest(lines), wantGolden(t); got != want {
		t.Fatalf("exact golden digest %s, want %s; first lines:\n%s", got, want, strings.Join(lines[:6], ""))
	}
}

// TestExactGoldenInterleaved runs the golden jobs heaviest, lightest,
// second heaviest, second lightest, … so each solve follows one of a
// very different size: whatever a solver keeps from its previous
// instance must not leak into the next answer. The sequence runs once
// on one goroutine and once on four, which pass pooled solvers
// between them.
func TestExactGoldenInterleaved(t *testing.T) {
	jobs := goldenJobs()
	byWork := make([]int, len(jobs))
	work := make([]int64, len(jobs))
	for k, j := range jobs {
		byWork[k] = k
		// Encoding size grows with ops × dependences and with II,
		// which shrinks as the machine widens.
		work[k] = int64(j.g.NumNodes()) * int64(j.g.NumEdges()) / int64(j.m.PerCluster[machine.FUAdd])
	}
	sort.SliceStable(byWork, func(a, b int) bool { return work[byWork[a]] > work[byWork[b]] })
	order := make([]int, 0, len(jobs))
	for lo, hi := 0, len(byWork)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, byWork[lo])
		if lo != hi {
			order = append(order, byWork[hi])
		}
	}
	if got, want := digest(runGolden(t, jobs, order, 1)), wantGolden(t); got != want {
		t.Fatalf("interleaved exact golden digest %s, want %s", got, want)
	}
	// Concurrent callers hand pooled solvers between goroutines.
	if got, want := digest(runGolden(t, jobs, order, 4)), wantGolden(t); got != want {
		t.Fatalf("interleaved exact golden digest over 4 goroutines %s, want %s", got, want)
	}
}
