package driver

// Adapters wiring the in-tree schedulers into the registry. Each
// adapter maps the scheduler-independent Options onto the back-end's
// own options struct and normalizes its Stats; this file is the only
// place in the repo that needs to know about all scheduler packages.

import (
	"context"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/portfolio"
	"repro/internal/schedule"
	"repro/internal/sms"
	"repro/internal/twophase"
)

func init() {
	Default.MustRegister(dmsScheduler{})
	Default.MustRegister(twophaseScheduler{})
	Default.MustRegister(imsScheduler{})
	Default.MustRegister(smsScheduler{})
	Default.MustRegister(exactScheduler{})
	Default.MustRegister(portfolioScheduler{})
}

// dmsScheduler adapts internal/core — Distributed Modulo Scheduling,
// the paper's contribution.
type dmsScheduler struct{}

func (dmsScheduler) Name() string    { return "dms" }
func (dmsScheduler) Clustered() bool { return true }
func (dmsScheduler) cooperative()    {}

func (dmsScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	s, st, err := core.ScheduleCtx(ctx, g, m, core.Options{
		BudgetRatio:      opt.BudgetRatio,
		MaxII:            opt.MaxII,
		DisableChains:    opt.DisableChains,
		OneDirectionOnly: opt.OneDirectionOnly,
	})
	stats := Stats{
		MII:        st.MII,
		II:         st.II,
		IIsTried:   st.IIsTried,
		Placements: st.Placements,
		Evictions:  st.Evictions,
		Extra: map[string]int{
			"strategy1":        st.Strategy1,
			"strategy2":        st.Strategy2,
			"strategy3":        st.Strategy3,
			"chains_built":     st.ChainsBuilt,
			"chains_dissolved": st.ChainsDissolved,
			"moves_inserted":   st.MovesInserted,
		},
	}
	return s, stats, err
}

// twophaseScheduler adapts internal/twophase — the partition-then-
// schedule baseline of the paper's §2.
type twophaseScheduler struct{}

func (twophaseScheduler) Name() string    { return "twophase" }
func (twophaseScheduler) Clustered() bool { return true }
func (twophaseScheduler) cooperative()    {}

func (twophaseScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	s, st, err := twophase.ScheduleCtx(ctx, g, m, twophase.Options{
		BudgetRatio:      opt.BudgetRatio,
		MaxII:            opt.MaxII,
		RefinementPasses: opt.RefinementPasses,
		LoadSlack:        opt.LoadSlack,
	})
	stats := Stats{
		MII:        st.MII,
		II:         st.II,
		IIsTried:   st.IIsTried,
		Placements: st.Placements,
		Evictions:  st.Evictions,
		Extra: map[string]int{
			"moves_inserted": st.MovesInserted,
			"comm_cost":      st.CommCost,
		},
	}
	return s, stats, err
}

// imsScheduler adapts internal/ims — Rau's Iterative Modulo
// Scheduling, the unclustered baseline.
type imsScheduler struct{}

func (imsScheduler) Name() string    { return "ims" }
func (imsScheduler) Clustered() bool { return false }
func (imsScheduler) cooperative()    {}

func (imsScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	s, st, err := ims.ScheduleCtx(ctx, g, m, ims.Options{
		BudgetRatio: opt.BudgetRatio,
		MaxII:       opt.MaxII,
	})
	stats := Stats{
		MII:        st.MII,
		II:         st.II,
		IIsTried:   st.IIsTried,
		Placements: st.Placements,
		Evictions:  st.Evictions,
	}
	return s, stats, err
}

// smsScheduler adapts internal/sms — Swing Modulo Scheduling, the
// lifetime-sensitive unclustered scheduler.
type smsScheduler struct{}

func (smsScheduler) Name() string    { return "sms" }
func (smsScheduler) Clustered() bool { return false }
func (smsScheduler) cooperative()    {}

func (smsScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	s, st, err := sms.ScheduleCtx(ctx, g, m, sms.Options{MaxII: opt.MaxII})
	fellBack := 0
	if st.FellBack {
		fellBack = 1
	}
	stats := Stats{
		MII:      st.MII,
		II:       st.II,
		IIsTried: st.IIsTried,
		// SMS places in two directions; the sum is the normalized count.
		Placements: st.Forward + st.Backward,
		Extra: map[string]int{
			"forward":    st.Forward,
			"backward":   st.Backward,
			"promotions": st.Promotions,
			"fell_back":  fellBack,
		},
	}
	return s, stats, err
}

// exactDefaultBudgetRatio mirrors the heuristics' default effort
// setting, and exactConflictsPerBudgetUnit converts one unit of the
// driver's abstract budget ratio into a SAT conflict allowance. The
// product bounds the cumulative conflicts across every candidate II,
// so budget exhaustion surfaces with the driver's timeout semantics
// (the error wraps context.DeadlineExceeded) just like the heuristics.
const (
	exactDefaultBudgetRatio     = 6
	exactConflictsPerBudgetUnit = 50_000
)

// exactScheduler adapts internal/exact — the SAT-based scheduler whose
// first feasible II is provably minimal on unclustered machines.
type exactScheduler struct{}

func (exactScheduler) Name() string    { return "exact" }
func (exactScheduler) Clustered() bool { return false }
func (exactScheduler) cooperative()    {}

func (exactScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	ratio := opt.BudgetRatio
	if ratio <= 0 {
		ratio = exactDefaultBudgetRatio
	}
	s, st, err := exact.ScheduleCtx(ctx, g, m, exact.Options{
		MaxII:        opt.MaxII,
		MaxConflicts: int64(ratio) * exactConflictsPerBudgetUnit,
	})
	stats := Stats{
		MII:      st.MII,
		II:       st.II,
		IIsTried: st.IIsTried,
		Extra: map[string]int{
			"sat_conflicts":    int(st.Conflicts),
			"sat_decisions":    int(st.Decisions),
			"sat_propagations": int(st.Propagations),
			"sat_solves":       st.Solves,
		},
	}
	if err == nil {
		stats.OptimalII = st.II
		stats.ProvedOptimal = true
	}
	return s, stats, err
}

// pooledFor returns the single-cluster relaxation of m: the same total
// functional units of every kind behind one central register file.
// Any schedule valid for m is valid for the relaxation, so the exact
// optimum on it lower-bounds every back-end's II on m itself.
func pooledFor(m *machine.Machine) *machine.Machine {
	if m.Clusters == 1 {
		return m
	}
	var per [machine.NumFUKinds]int
	for k := machine.FUKind(0); int(k) < machine.NumFUKinds; k++ {
		per[k] = m.TotalFUs(k)
	}
	return machine.New("pooled-"+m.Name, 1, per, m.Lat)
}

// portfolioScheduler adapts internal/portfolio: it races dms against
// the exact scheduler on the same prepared graph. On single-cluster
// machines exact competes outright; on clustered machines it runs on
// the pooled relaxation as a bound-only entrant, so the portfolio
// still reports a certified optimality gap without ever returning a
// schedule for the wrong machine.
type portfolioScheduler struct{}

func (portfolioScheduler) Name() string    { return "portfolio" }
func (portfolioScheduler) Clustered() bool { return true }
func (portfolioScheduler) cooperative()    {}

func (portfolioScheduler) Schedule(ctx context.Context, g *ddg.Graph, m *machine.Machine, opt Options) (*schedule.Schedule, Stats, error) {
	pm := pooledFor(m)
	entrants := []portfolio.Entrant{
		{
			Name: "dms",
			Run: func(ctx context.Context) (portfolio.RunResult, error) {
				s, st, err := dmsScheduler{}.Schedule(ctx, g.Clone(), m, opt)
				if err != nil {
					return portfolio.RunResult{}, err
				}
				return portfolio.RunResult{Sched: s, MII: st.MII, II: st.II, Payload: st}, nil
			},
		},
		{
			Name:      "exact",
			Exact:     true,
			BoundOnly: m.Clusters > 1,
			Run: func(ctx context.Context) (portfolio.RunResult, error) {
				s, st, err := exactScheduler{}.Schedule(ctx, g.Clone(), pm, opt)
				if err != nil {
					return portfolio.RunResult{}, err
				}
				return portfolio.RunResult{Sched: s, MII: st.MII, II: st.II, Payload: st}, nil
			},
		},
	}
	out, err := portfolio.Race(ctx, entrants, portfolio.Options{})
	if err != nil {
		return nil, Stats{}, err
	}
	stats, _ := out.Result.Payload.(Stats)
	if stats.Extra == nil {
		stats.Extra = make(map[string]int)
	}
	stats.OptimalII, stats.ProvedOptimal = 0, false
	if out.Proved {
		stats.OptimalII = out.OptimalII
		stats.ProvedOptimal = true
		stats.Extra["gap"] = out.Gap
	}
	for _, n := range out.Won {
		stats.Extra["won_"+n] = 1
	}
	for _, n := range out.Lost {
		stats.Extra["lost_"+n] = 1
	}
	for _, n := range out.Canceled {
		stats.Extra["canceled_"+n] = 1
	}
	return out.Result.Sched, stats, nil
}
