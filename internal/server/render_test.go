package server

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

// renderScheduleFmt is the fmt-based RenderSchedule that the
// strconv/slices version replaced, kept as the reference the wire
// format must not drift from.
func renderScheduleFmt(s *schedule.Schedule) string {
	g := s.Graph()
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool {
		pi, _ := s.At(ids[i])
		pj, _ := s.At(ids[j])
		if pi.Time != pj.Time {
			return pi.Time < pj.Time
		}
		if pi.Cluster != pj.Cluster {
			return pi.Cluster < pj.Cluster
		}
		return ids[i] < ids[j]
	})
	var sb []byte
	for _, id := range ids {
		p, _ := s.At(id)
		n := g.Node(id)
		sb = fmt.Appendf(sb, "t=%d c=%d %s %s\n", p.Time, p.Cluster, n.Class, n.Name)
	}
	return string(sb)
}

// TestRenderScheduleMatchesFmt renders the corpus's schedules — with
// DMS move and copy nodes on clustered machines, and without on an
// unclustered one — and compares them byte-for-byte with the reference.
func TestRenderScheduleMatchesFmt(t *testing.T) {
	var jobs []driver.Job
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 60) {
		jobs = append(jobs,
			driver.Job{Loop: l, Machine: machine.Clustered(4), Scheduler: "dms"},
			driver.Job{Loop: l, Machine: machine.Clustered(8), Scheduler: "twophase"},
			driver.Job{Loop: l, Machine: machine.Unclustered(4), Scheduler: "ims"})
	}
	for _, r := range driver.CompileAll(context.Background(), jobs, driver.BatchOptions{}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
		if got, want := RenderSchedule(r.Schedule), renderScheduleFmt(r.Schedule); got != want {
			t.Fatalf("%s: RenderSchedule =\n%s\nwant\n%s", r.Job, got, want)
		}
	}
}
