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

// goldenJobs returns the first n pinned-corpus loops on
// Unclustered(1/2/4). The search golden (testdata/search.sha256) pins
// the first 50; the II golden (testdata/ii.golden) covers all 200, the
// exact-certify benchmark set.
func goldenJobs(n int) []goldenJob {
	lat := machine.DefaultLatencies()
	var jobs []goldenJob
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, n) {
		g := ddg.FromLoop(l, lat)
		for _, c := range []int{1, 2, 4} {
			jobs = append(jobs, goldenJob{g: g, m: machine.Unclustered(c)})
		}
	}
	return jobs
}

// searchGoldenLoops is the number of pinned-corpus loops the search
// golden covers.
const searchGoldenLoops = 50

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

// iiLine renders one job's optimum: loop, machine, MII and II. It
// changes only if the search returns a different II.
func iiLine(j goldenJob, _ *schedule.Schedule, st Stats) string {
	return fmt.Sprintf("%s %s mii=%d ii=%d\n", j.g.Name(), j.m.Name, st.MII, st.II)
}

// runGolden schedules jobs[k] for every k in order, spread over the
// given number of goroutines, and returns the lines line renders,
// indexed by job, so any visiting order hashes the same way.
func runGolden(t *testing.T, jobs []goldenJob, order []int, workers int,
	line func(goldenJob, *schedule.Schedule, Stats) string) []string {
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
				lines[k] = line(j, s, st)
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
	b, err := os.ReadFile("testdata/search.sha256")
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

func inOrder(n int) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	return order
}

// TestExactIIGolden pins the optimum II of every exact-certify job,
// the 200 pinned-corpus loops × Unclustered(1/2/4), to a readable
// file. A change to the search policy may rewrite the search golden
// but must leave this file byte-identical: the II is the answer, the
// search is only how it is found.
func TestExactIIGolden(t *testing.T) {
	jobs := goldenJobs(200)
	got := strings.Join(runGolden(t, jobs, inOrder(len(jobs)), 2, iiLine), "")
	b, err := os.ReadFile("testdata/ii.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for k := range min(len(gl), len(wl)) {
		if gl[k] != wl[k] {
			t.Fatalf("ii golden line %d: got %q, want %q", k+1, gl[k], wl[k])
		}
	}
	t.Fatalf("ii golden has %d lines, run produced %d", len(wl), len(gl))
}

// TestExactScheduleGolden pins every exact schedule and its solver
// statistics on the first 50 pinned-corpus loops × Unclustered(1/2/4)
// to the search golden. A change to the search policy rewrites it;
// reusing a solver across Schedule calls must not change a single
// issue time, II or work counter.
func TestExactScheduleGolden(t *testing.T) {
	jobs := goldenJobs(searchGoldenLoops)
	lines := runGolden(t, jobs, inOrder(len(jobs)), 1, goldenLine)
	if got, want := digest(lines), wantGolden(t); got != want {
		t.Fatalf("search golden digest %s, want %s; first lines:\n%s", got, want, strings.Join(lines[:6], ""))
	}
}

// TestExactGoldenInterleaved runs the golden jobs heaviest, lightest,
// second heaviest, second lightest, … so each solve follows one of a
// very different size: whatever a solver keeps from its previous
// instance must not leak into the next answer. The sequence runs once
// on one goroutine and once on four, which pass pooled solvers
// between them.
func TestExactGoldenInterleaved(t *testing.T) {
	jobs := goldenJobs(searchGoldenLoops)
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
	if got, want := digest(runGolden(t, jobs, order, 1, goldenLine)), wantGolden(t); got != want {
		t.Fatalf("interleaved exact golden digest %s, want %s", got, want)
	}
	// Concurrent callers hand pooled solvers between goroutines.
	if got, want := digest(runGolden(t, jobs, order, 4, goldenLine)), wantGolden(t); got != want {
		t.Fatalf("interleaved exact golden digest over 4 goroutines %s, want %s", got, want)
	}
}
