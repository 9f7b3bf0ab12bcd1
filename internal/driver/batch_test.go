package driver

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

// batchFingerprint renders a batch result to one comparable string:
// every schedule byte-for-byte plus the normalized stats. Two runs of
// the same jobs must produce identical fingerprints whatever the
// parallelism.
func batchFingerprint(t *testing.T, results []Result) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.Job.String())
		sb.WriteByte('\n')
		if r.Err != nil {
			sb.WriteString("error: " + r.Err.Error() + "\n")
			continue
		}
		sb.WriteString(r.Schedule.String())
		sb.WriteString(strings.Join([]string{
			"II", strconv.Itoa(r.Stats.II), "MII", strconv.Itoa(r.Stats.MII),
			"tried", strconv.Itoa(r.Stats.IIsTried), "cycles", strconv.Itoa(int(r.Metrics.Cycles)),
		}, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCompileAllDeterministicOrdering runs the same mixed batch at
// parallelism 1, 4 and 8 and requires byte-identical results in job
// order, independent of goroutine interleaving.
func TestCompileAllDeterministicOrdering(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 20)
	machines := []*machine.Machine{machine.Clustered(2), machine.Clustered(4)}
	jobs := Jobs(loops, machines, []string{"dms", "twophase"}, Options{})

	base := batchFingerprint(t, CompileAll(context.Background(), jobs, BatchOptions{Parallelism: 1}))
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	for _, par := range []int{4, 8} {
		got := batchFingerprint(t, CompileAll(context.Background(), jobs, BatchOptions{Parallelism: par}))
		if got != base {
			t.Errorf("parallelism %d produced different results than parallelism 1", par)
		}
	}
}

// TestCompileAllIsolatesFailures interleaves jobs that must fail (the
// unclustered IMS back-end on clustered machines) with jobs that must
// succeed; the failures land in their own Results and the rest of the
// batch is unaffected.
func TestCompileAllIsolatesFailures(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 6)
	var jobs []Job
	for _, l := range loops {
		jobs = append(jobs,
			Job{Loop: l, Machine: machine.Clustered(4), Scheduler: "dms"},
			Job{Loop: l, Machine: machine.Clustered(4), Scheduler: "ims"},     // clusters != 1: must fail
			Job{Loop: l, Machine: machine.Clustered(4), Scheduler: "no-such"}, // unknown: must fail
		)
	}
	results := CompileAll(context.Background(), jobs, BatchOptions{Parallelism: 4})
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		switch i % 3 {
		case 0:
			if r.Err != nil {
				t.Errorf("job %d (%s): unexpected error: %v", i, r.Job, r.Err)
			}
			if r.Schedule == nil {
				t.Errorf("job %d (%s): nil schedule without error", i, r.Job)
			}
		default:
			if r.Err == nil {
				t.Errorf("job %d (%s): expected failure, got schedule", i, r.Job)
			}
			if r.Schedule != nil {
				t.Errorf("job %d (%s): schedule on failed job", i, r.Job)
			}
		}
	}
}

// sleepyScheduler blocks long enough to trip any reasonable timeout.
type sleepyScheduler struct{ d time.Duration }

func (s sleepyScheduler) Name() string    { return "sleepy" }
func (s sleepyScheduler) Clustered() bool { return false }
func (s sleepyScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	// Deliberately ignores ctx: stands in for a non-cooperative
	// third-party back-end, exercising the watchdog path.
	time.Sleep(s.d)
	return nil, Stats{}, nil
}

// TestCompileAllTimeout registers a deliberately slow back-end in a
// private registry and checks that the per-job timeout converts it
// into an error Result while fast jobs in the same batch succeed.
func TestCompileAllTimeout(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(sleepyScheduler{d: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dms", "ims"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	l := perfect.KernelDot()
	jobs := []Job{
		{Loop: l, Machine: machine.Unclustered(2), Scheduler: "sleepy"},
		{Loop: l, Machine: machine.Clustered(2), Scheduler: "dms"},
		{Loop: l, Machine: machine.Unclustered(2), Scheduler: "ims"},
	}
	start := time.Now()
	results := CompileAll(context.Background(), jobs, BatchOptions{
		Parallelism: 2,
		Timeout:     200 * time.Millisecond,
		Registry:    reg,
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("batch took %v; timeout did not fire", elapsed)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "timed out") {
		t.Errorf("sleepy job: want timeout error, got %v", results[0].Err)
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Job, r.Err)
		}
	}
}

// goroutineID returns the ID runtime.Stack prints for the calling
// goroutine.
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// probeScheduler records the goroutine its Schedule ran on.
type probeScheduler struct{ ran *string }

func (probeScheduler) Name() string    { return "probe" }
func (probeScheduler) Clustered() bool { return false }
func (p probeScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	*p.ran = goroutineID()
	return nil, Stats{}, errors.New("probe")
}

// cooperativeProbe is a probeScheduler carrying the built-in marker.
type cooperativeProbe struct{ probeScheduler }

func (cooperativeProbe) cooperative() {}

// TestCompileRunsBuiltinsInline: under a cancelable context, a back-end
// carrying the built-in marker compiles on the caller's goroutine and
// an unmarked one on a goroutine of its own, under the watchdog. Every
// registered built-in carries the marker.
func TestCompileRunsBuiltinsInline(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(cooperative); !ok {
			t.Errorf("built-in %s lacks the cooperative marker", name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	caller := goroutineID()
	var ran string
	probe := probeScheduler{ran: &ran}
	for _, tc := range []struct {
		s      Scheduler
		inline bool
	}{{cooperativeProbe{probe}, true}, {probe, false}} {
		reg := NewRegistry()
		if err := reg.Register(tc.s); err != nil {
			t.Fatal(err)
		}
		job := Job{Loop: perfect.KernelDot(), Machine: machine.Unclustered(2), Scheduler: "probe"}
		r := Compile(ctx, job, BatchOptions{Registry: reg, Timeout: time.Minute})
		if r.Err == nil || !strings.Contains(r.Err.Error(), "probe") {
			t.Errorf("want the probe's error, got %v", r.Err)
		}
		if (ran == caller) != tc.inline {
			t.Errorf("%T ran on goroutine %s, caller is %s; want inline=%v", tc.s, ran, caller, tc.inline)
		}
	}
}

// panicScheduler stands in for a buggy third-party back-end.
type panicScheduler struct{}

func (panicScheduler) Name() string    { return "panicky" }
func (panicScheduler) Clustered() bool { return false }
func (panicScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	panic("scheduler bug")
}

// nilScheduler violates the contract by returning neither a schedule
// nor an error.
type nilScheduler struct{}

func (nilScheduler) Name() string    { return "nilsched" }
func (nilScheduler) Clustered() bool { return false }
func (nilScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	return nil, Stats{}, nil
}

// TestCompileAllIsolatesPanicsAndNilSchedules checks that a panicking
// or contract-violating back-end is contained in its own Result even
// without a timeout (the Timeout=0 fast path), and that well-behaved
// jobs in the same batch still succeed.
func TestCompileAllIsolatesPanicsAndNilSchedules(t *testing.T) {
	reg := NewRegistry()
	for _, s := range []Scheduler{panicScheduler{}, nilScheduler{}} {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	dms, err := Get("dms")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(dms); err != nil {
		t.Fatal(err)
	}
	l := perfect.KernelDot()
	jobs := []Job{
		{Loop: l, Machine: machine.Unclustered(2), Scheduler: "panicky"},
		{Loop: l, Machine: machine.Unclustered(2), Scheduler: "nilsched"},
		{Loop: l, Machine: machine.Clustered(2), Scheduler: "dms"},
	}
	results := CompileAll(context.Background(), jobs, BatchOptions{Parallelism: 2, Registry: reg})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Errorf("panicky job: want panic error, got %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "no schedule and no error") {
		t.Errorf("nilsched job: want contract-violation error, got %v", results[1].Err)
	}
	if results[2].Err != nil {
		t.Errorf("dms job poisoned by bad neighbours: %v", results[2].Err)
	}
}

// TestCompileAllEmptyAndOversubscribed covers the pool edge cases: no
// jobs, and more workers than jobs.
func TestCompileAllEmptyAndOversubscribed(t *testing.T) {
	if res := CompileAll(context.Background(), nil, BatchOptions{}); len(res) != 0 {
		t.Errorf("nil jobs produced %d results", len(res))
	}
	l := perfect.KernelDot()
	jobs := []Job{{Loop: l, Machine: machine.Clustered(2), Scheduler: "dms"}}
	res := CompileAll(context.Background(), jobs, BatchOptions{Parallelism: 64})
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("oversubscribed pool: %+v", res)
	}
}

// TestJobsCrossProductOrder pins the documented deterministic order:
// loops outermost, schedulers innermost.
func TestJobsCrossProductOrder(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 2)
	machines := []*machine.Machine{machine.Clustered(2), machine.Clustered(4)}
	jobs := Jobs(loops, machines, []string{"a", "b"}, Options{})
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	want := []string{
		loops[0].Name + "/clustered-2/a", loops[0].Name + "/clustered-2/b",
		loops[0].Name + "/clustered-4/a", loops[0].Name + "/clustered-4/b",
		loops[1].Name + "/clustered-2/a", loops[1].Name + "/clustered-2/b",
		loops[1].Name + "/clustered-4/a", loops[1].Name + "/clustered-4/b",
	}
	for i, j := range jobs {
		if j.String() != want[i] {
			t.Errorf("jobs[%d] = %s, want %s", i, j, want[i])
		}
	}
}
