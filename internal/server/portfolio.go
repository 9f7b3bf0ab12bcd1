package server

import (
	"sort"
	"strings"
	"sync"

	api "repro/api/v1"
)

// portfolioAgg aggregates the portfolio meta-scheduler's results as
// they land in job buffers. Aggregating at the emit point — rather
// than inside the scheduler — makes the counters correct wherever a
// unit compiled: on an in-process puller or a remote worker, all
// results flow through the same per-record hook.
type portfolioAgg struct {
	mu      sync.Mutex
	races   int64
	gapObs  int64
	gapSum  int64
	gapMax  int64
	proved  int64
	wins    map[string]int64
	losses  map[string]int64
	cancels map[string]int64
}

// record folds one successful portfolio result into the aggregate.
func (p *portfolioAgg) record(st *api.Stats) {
	keys := make([]string, 0, len(st.Extra))
	//dms:orderok keys are collected then sorted before any counter is touched
	for k := range st.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.races++
	if st.ProvedOptimal {
		gap := int64(st.II - st.OptimalII)
		p.gapObs++
		p.gapSum += gap
		if gap > p.gapMax {
			p.gapMax = gap
		}
		if gap == 0 {
			p.proved++
		}
	}
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, "won_"):
			if p.wins == nil {
				p.wins = make(map[string]int64)
			}
			p.wins[strings.TrimPrefix(k, "won_")]++
		case strings.HasPrefix(k, "lost_"):
			if p.losses == nil {
				p.losses = make(map[string]int64)
			}
			p.losses[strings.TrimPrefix(k, "lost_")]++
		case strings.HasPrefix(k, "canceled_"):
			if p.cancels == nil {
				p.cancels = make(map[string]int64)
			}
			p.cancels[strings.TrimPrefix(k, "canceled_")]++
		}
	}
}

// snapshot renders the aggregate in its wire form.
func (p *portfolioAgg) snapshot() api.PortfolioMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return api.PortfolioMetrics{
		Races:         p.races,
		GapObserved:   p.gapObs,
		GapSum:        p.gapSum,
		GapMax:        p.gapMax,
		ProvedOptimal: p.proved,
		Wins:          copyCounts(p.wins),
		Losses:        copyCounts(p.losses),
		Cancels:       copyCounts(p.cancels),
	}
}

func copyCounts(src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return nil
	}
	dst := make(map[string]int64, len(src))
	for k, v := range src { // map-to-map transfer keyed by the range key
		dst[k] = v
	}
	return dst
}
