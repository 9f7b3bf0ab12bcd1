package worker

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ewma"
	"repro/internal/server"
)

// Chunk self-sizing defaults.
const (
	// DefaultChunkTarget is the wall-clock one self-sized chunk should
	// take the worker to drain. Longer chunks amortize lease round
	// trips; shorter chunks keep the requeue cost of a lost lease (and
	// the tail a slow worker can serialize) small. One second sits
	// comfortably inside the default lease TTL with heartbeats to
	// spare.
	DefaultChunkTarget = time.Second
	// chunkEWMAAlpha is the smoothing factor of the per-class
	// service-time EWMAs: recent units dominate, but one outlier unit
	// cannot whipsaw the chunk size.
	chunkEWMAAlpha = 0.3
	// chunkMixAlpha decays the per-class mix shares, so the blend
	// tracks what the queue is sending now rather than the whole run.
	chunkMixAlpha = 0.1
	// chunkWarmup is the observation count below which the calculator
	// keeps requesting the configured initial size.
	chunkWarmup = 3
)

// costClass buckets a scheduler by expected per-unit cost, so the
// calculator's EWMAs are not polluted across regimes: an exact SAT
// solve is orders of magnitude slower than a heuristic pass, and
// averaging the two would mis-size chunks for both.
func costClass(scheduler string) int {
	switch scheduler {
	case "exact", "portfolio":
		return 1
	}
	return 0
}

const numCostClasses = 2

// classEWMA is one cost class's smoothed service time and its decayed
// share of recent traffic.
type classEWMA struct {
	serviceMS ewma.Mean
	share     float64
}

// chunkCalc sizes the worker's next lease request from its own
// measured service times — guided self-scheduling computed at the
// worker, where the service-time signal lives, rather than at the
// coordinator. It keeps one EWMA per unit cost class (heuristic
// schedulers versus exact/portfolio solves) and blends them by the
// decayed mix of recent units, so a queue that shifts from cheap to
// expensive units shrinks the next request before a chunk overruns
// the lease TTL.
//
// Next applies a factoring-style rule to the coordinator-reported
// backlog: request the units that fit the target lease time at the
// observed rate, but never more than half of what remains, so the
// tail of a draining queue stays divisible among the faster workers
// instead of serializing behind one straggler.
type chunkCalc struct {
	mu      sync.Mutex
	initial int           // warm-up request size (0 = coordinator default)
	par     int           // units compiled concurrently
	target  time.Duration // wall-clock budget one chunk should take
	total   uint64        // observations across all classes
	classes [numCostClasses]classEWMA
}

func newChunkCalc(initial, parallelism int, target time.Duration) *chunkCalc {
	if parallelism < 1 {
		parallelism = 1
	}
	if target <= 0 {
		target = DefaultChunkTarget
	}
	return &chunkCalc{initial: initial, par: parallelism, target: target}
}

// Observe records one completed unit's service time.
func (c *chunkCalc) Observe(scheduler string, d time.Duration) {
	cls := costClass(scheduler)
	ms := float64(d) / float64(time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.classes {
		hit := 0.0
		if i == cls {
			hit = 1.0
		}
		c.classes[i].share = (1-chunkMixAlpha)*c.classes[i].share + chunkMixAlpha*hit
	}
	c.classes[cls].serviceMS.Observe(chunkEWMAAlpha, ms)
	c.total++
}

// blendedLocked is the mix-weighted service-time estimate in
// milliseconds, 0 until something has been observed.
func (c *chunkCalc) blendedLocked() float64 {
	num, den := 0.0, 0.0
	for i := range c.classes {
		e := c.classes[i]
		if !e.serviceMS.Seeded || e.share <= 0 {
			continue
		}
		num += e.share * e.serviceMS.Value
		den += e.share
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// EWMA reports the blended per-unit service time in milliseconds for
// self-reporting on lease requests (0 = not yet warmed up).
func (c *chunkCalc) EWMA() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blendedLocked()
}

// Next computes the units to request on the next lease given the
// backlog the coordinator reported after the previous one (negative =
// unknown). During warm-up it returns the configured initial size.
func (c *chunkCalc) Next(remaining int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total < chunkWarmup {
		return c.initial
	}
	ewma := c.blendedLocked()
	if ewma <= 0 {
		// Sub-millisecond units (a fully warm cache): the rate bound is
		// effectively infinite; take the factoring bound alone.
		ewma = 0.001
	}
	want := float64(c.target.Milliseconds()) / ewma * float64(c.par)
	if remaining >= 0 {
		// Factoring rule: leave at least half the known backlog for the
		// rest of the fleet.
		if half := float64((remaining + 1) / 2); want > half {
			want = half
		}
	}
	n := int(want)
	if n < 1 {
		n = 1
	}
	if n > server.DefaultLeaseChunkMax {
		n = server.DefaultLeaseChunkMax
	}
	return n
}

// normalizeSchedulers sorts and deduplicates an advertisement list.
func normalizeSchedulers(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := append([]string(nil), names...)
	sort.Strings(out)
	w := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[w] = s
			w++
		}
	}
	return out[:w]
}
