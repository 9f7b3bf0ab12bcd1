package repro_test

// Benchmark harness for the paper's evaluation. One benchmark per data
// figure regenerates the figure on a corpus sample and reports the
// headline numbers as custom metrics; micro-benchmarks cover the
// scheduler phases; ablation benchmarks isolate the design choices
// DESIGN.md calls out (chains, bi-directional routing, copy-unit
// count, fan-out limiting).
//
// The full-corpus figures are produced by `go run ./cmd/dmsbench`; the
// benchmarks use a sample so one iteration stays in the hundreds of
// milliseconds.

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/ims"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/sms"
	"repro/internal/twophase"
	"repro/internal/vliw"
)

const benchSample = 96 // corpus loops per figure-benchmark iteration

// BenchmarkFigure4 regenerates Figure 4 (II increase due to
// partitioning, clusters 1..10) on a corpus sample and reports the
// percentage of loops with an II increase at 8 clusters — the paper's
// headline claim is that it stays below 20%.
func BenchmarkFigure4(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, benchSample)
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(context.Background(), sample, experiment.Clusters, experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Figure4()
		b.ReportMetric(rows[7].Pct(), "pct-increased@8c")
		b.ReportMetric(rows[1].Pct(), "pct-increased@2c")
	}
}

// BenchmarkFigure5 regenerates Figure 5 (relative execution cycles)
// and reports the clustered-vs-unclustered cycle ratio at 24 FUs for
// both loop sets.
func BenchmarkFigure5(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, benchSample)
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(context.Background(), sample, experiment.Clusters, experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
		fig := res.Figure5()
		b.ReportMetric(fig.Set1Clustered[7].Value/fig.Set1Unclustered[7].Value, "set1-ratio@24fu")
		b.ReportMetric(fig.Set2Clustered[7].Value/fig.Set2Unclustered[7].Value, "set2-ratio@24fu")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (IPC) and reports clustered
// IPC at 21 and 30 FUs for set 1 (which the paper says levels off past
// 21 FUs) and at 30 FUs for set 2 (which keeps improving).
func BenchmarkFigure6(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, benchSample)
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(context.Background(), sample, experiment.Clusters, experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
		fig := res.Figure6()
		b.ReportMetric(fig.Set1Clustered[6].Value, "set1-ipc@21fu")
		b.ReportMetric(fig.Set1Clustered[9].Value, "set1-ipc@30fu")
		b.ReportMetric(fig.Set2Clustered[9].Value, "set2-ipc@30fu")
	}
}

// BenchmarkIMSSchedule measures baseline scheduling throughput.
func BenchmarkIMSSchedule(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Unclustered(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := sample[i%len(sample)]
		if _, _, err := ims.ScheduleCtx(context.Background(), ddg.FromLoop(l, lat), m, ims.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDMSSchedule measures DMS throughput on an 8-cluster ring —
// the widest configuration the paper calls effective.
func BenchmarkDMSSchedule(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Clustered(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ddg.FromLoop(sample[i%len(sample)], lat)
		ddg.InsertCopies(g, ddg.MaxUses)
		if _, _, err := core.ScheduleCtx(context.Background(), g, m, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSchedule measures the SAT-based exact scheduler: one
// iteration proves the optimal II of every loop of the 50-loop pinned
// corpus on the unclustered 1, 2 and 4 machines, and reports the mean
// time and SAT conflicts per schedule.
func BenchmarkExactSchedule(b *testing.B) {
	lat := machine.DefaultLatencies()
	var graphs []*ddg.Graph
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 50) {
		graphs = append(graphs, ddg.FromLoop(l, lat))
	}
	machines := []*machine.Machine{machine.Unclustered(1), machine.Unclustered(2), machine.Unclustered(4)}
	ctx := context.Background()
	var conflicts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			for _, m := range machines {
				_, st, err := exact.ScheduleCtx(ctx, g, m, exact.Options{})
				if err != nil {
					b.Fatal(err)
				}
				conflicts += st.Conflicts
			}
		}
	}
	per := float64(b.N * len(graphs) * len(machines))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/per, "us/schedule")
	b.ReportMetric(float64(conflicts)/per, "conflicts/schedule")
}

// BenchmarkSMSSchedule measures the lifetime-sensitive baseline.
func BenchmarkSMSSchedule(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Unclustered(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sms.ScheduleCtx(context.Background(), ddg.FromLoop(sample[i%len(sample)], lat), m, sms.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPhaseSchedule measures the partition-first baseline.
func BenchmarkTwoPhaseSchedule(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Clustered(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ddg.FromLoop(sample[i%len(sample)], lat)
		ddg.InsertCopies(g, ddg.MaxUses)
		if _, _, err := twophase.ScheduleCtx(context.Background(), g, m, twophase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareTwoPhase reports the II cost of deciding the
// partition before scheduling (total two-phase II / total DMS II at 6
// clusters) — the quantitative form of the paper's §2 argument for the
// single-phase design.
func BenchmarkCompareTwoPhase(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 64)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.CompareDMSTwoPhase(context.Background(), sample, []int{6}, experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.TwoPhaseIISum)/float64(r.DMSIISum), "II-ratio-2phase/dms")
		b.ReportMetric(float64(r.DMSWins), "dms-wins")
	}
}

// BenchmarkComparePressure reports the register saving of
// lifetime-sensitive scheduling (SMS vs IMS MaxLives at 12 FUs) — the
// software-side counterpart of the paper's register-file argument.
func BenchmarkComparePressure(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 64)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.ComparePressure(context.Background(), sample, []int{4}, experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(100*(1-float64(r.SMSMaxLives)/float64(r.IMSMaxLives)), "pct-regs-saved")
	}
}

// BenchmarkMII measures the lower-bound computation (binary-searched
// Bellman-Ford RecMII dominates).
func BenchmarkMII(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	m := machine.Unclustered(4)
	graphs := make([]*ddg.Graph, len(sample))
	for i, l := range sample {
		graphs[i] = ddg.FromLoop(l, lat)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphs[i%len(graphs)].MII(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCopyInsertion measures the fan-out limiting prepass.
func BenchmarkCopyInsertion(b *testing.B) {
	sample := perfect.CorpusN(perfect.DefaultSeed, 32)
	lat := machine.DefaultLatencies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ddg.FromLoop(sample[i%len(sample)], lat)
		ddg.InsertCopies(g, ddg.MaxUses)
	}
}

// BenchmarkQueueAllocation measures lifetime analysis plus FIFO queue
// packing.
func BenchmarkQueueAllocation(b *testing.B) {
	c, err := repro.New().Compile(context.Background(), repro.Request{Loop: perfect.KernelFIR4(), Clusters: 6, Unroll: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lifetime.Analyze(c.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures the cycle-accurate simulator.
func BenchmarkSimulate(b *testing.B) {
	c, err := repro.New().Compile(context.Background(), repro.Request{Loop: perfect.KernelFIR4(), Clusters: 4})
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := c.Allocation()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliw.Simulate(c.Schedule, alloc, c.Metrics.Trip); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationRun schedules a sample at 8 clusters with the given DMS
// options and reports the II-overhead rate versus the unclustered
// baseline plus the failure rate (loops the variant cannot schedule).
func ablationRun(b *testing.B, m *machine.Machine, opt core.Options, copyLimit int) {
	b.Helper()
	sample := perfect.CorpusN(perfect.DefaultSeed, 64)
	lat := machine.DefaultLatencies()
	um := machine.Unclustered(m.Clusters)
	for i := 0; i < b.N; i++ {
		increased, failed := 0, 0
		for _, l := range sample {
			ug := ddg.FromLoop(l, lat)
			_, ust, err := ims.ScheduleCtx(context.Background(), ug, um, ims.Options{})
			if err != nil {
				b.Fatal(err)
			}
			g := ddg.FromLoop(l, lat)
			if copyLimit > 0 {
				ddg.InsertCopies(g, copyLimit)
			}
			_, cst, err := core.ScheduleCtx(context.Background(), g, m, opt)
			if err != nil {
				failed++
				continue
			}
			if cst.II > ust.II {
				increased++
			}
		}
		b.ReportMetric(100*float64(increased)/float64(len(sample)), "pct-II-increased")
		b.ReportMetric(100*float64(failed)/float64(len(sample)), "pct-unschedulable")
	}
}

// BenchmarkAblationFullDMS is the reference point for the ablations:
// full DMS on 8 clusters.
func BenchmarkAblationFullDMS(b *testing.B) {
	ablationRun(b, machine.Clustered(8), core.Options{}, ddg.MaxUses)
}

// BenchmarkAblationNoChains disables strategy 2, approximating the
// authors' IPPS'98 single-phase scheme; the unschedulable rate shows
// why chains are required beyond ~5 clusters.
func BenchmarkAblationNoChains(b *testing.B) {
	ablationRun(b, machine.Clustered(8), core.Options{DisableChains: true}, ddg.MaxUses)
}

// BenchmarkAblationOneDirection restricts chains to the shortest ring
// direction (paper Figure 3 motivates having both).
func BenchmarkAblationOneDirection(b *testing.B) {
	ablationRun(b, machine.Clustered(8), core.Options{OneDirectionOnly: true}, ddg.MaxUses)
}

// BenchmarkAblationExtraCopyFU gives every cluster a second copy unit
// — the "additional hardware support" the paper suggests for wide
// machines (§4/§5).
func BenchmarkAblationExtraCopyFU(b *testing.B) {
	ablationRun(b, machine.ClusteredWithCopyFUs(8, 2), core.Options{}, ddg.MaxUses)
}

// BenchmarkAblationNoCopyLimit skips the fan-out limiting prepass;
// high-fan-out producers then pin consumers around themselves.
func BenchmarkAblationNoCopyLimit(b *testing.B) {
	ablationRun(b, machine.Clustered(8), core.Options{}, 0)
}
