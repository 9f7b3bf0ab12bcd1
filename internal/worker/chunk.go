package worker

import (
	"slices"
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
	// chunkEWMAAlpha is the smoothing factor of the service-time EWMA:
	// recent units dominate, but one outlier unit cannot whipsaw the
	// chunk size.
	chunkEWMAAlpha = 0.3
	// chunkWarmup is the observation count below which the calculator
	// keeps requesting the configured initial size.
	chunkWarmup = 3
)

// chunkCalc sizes the worker's next lease request from its own
// measured service times — guided self-scheduling computed at the
// worker, where the service-time signal lives, rather than at the
// coordinator. One EWMA covers every unit, so a queue that shifts from
// cheap to expensive units shrinks the next request within a few
// units, before a chunk overruns the lease TTL.
//
// Next applies a factoring-style rule to the coordinator-reported
// backlog: request the units that fit the target lease time at the
// observed rate, but never more than half of what remains, so the
// tail of a draining queue stays divisible among the faster workers
// instead of serializing behind one straggler.
type chunkCalc struct {
	mu        sync.Mutex
	initial   int           // warm-up request size (0 = coordinator default)
	par       int           // units compiled concurrently
	target    time.Duration // wall-clock budget one chunk should take
	total     uint64        // observations
	serviceMS ewma.Mean
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
func (c *chunkCalc) Observe(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serviceMS.Observe(chunkEWMAAlpha, float64(d)/float64(time.Millisecond))
	c.total++
}

// EWMA reports the per-unit service time in milliseconds for
// self-reporting on lease requests (0 = nothing observed yet).
func (c *chunkCalc) EWMA() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serviceMS.Value
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
	ewma := c.serviceMS.Value
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
	return slices.Compact(slices.Sorted(slices.Values(names)))
}
