package worker

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

// TestChunkCalcWarmup pins the warm-up contract: until the calculator
// has seen enough units it keeps requesting the configured initial
// size (including 0, "let the coordinator pick"), then switches to
// self-sized requests.
func TestChunkCalcWarmup(t *testing.T) {
	c := newChunkCalc(0, 1, time.Second)
	if got := c.Next(1000); got != 0 {
		t.Fatalf("cold Next = %d, want the initial 0 (coordinator default)", got)
	}
	if got := c.EWMA(); got != 0 {
		t.Fatalf("cold EWMA = %v, want 0 (unreported)", got)
	}
	for i := 0; i < chunkWarmup-1; i++ {
		c.Observe(10 * time.Millisecond)
		if got := c.Next(1000); got != 0 {
			t.Fatalf("Next after %d observations = %d, still warming — want 0", i+1, got)
		}
	}
	c.Observe(10 * time.Millisecond)
	if got := c.Next(1000); got <= 0 {
		t.Fatalf("warm Next = %d, want a self-sized positive request", got)
	}
	if got := c.EWMA(); got <= 0 {
		t.Fatalf("warm EWMA = %v, want positive", got)
	}
}

// TestChunkCalcTargetSizing: a warm calculator requests roughly
// target/ewma × parallelism units, so a 4×-slower worker asks for a
// 4×-smaller chunk, and doubling parallelism doubles the request.
func TestChunkCalcTargetSizing(t *testing.T) {
	warm := func(unitMS int, par int) *chunkCalc {
		c := newChunkCalc(8, par, time.Second)
		for i := 0; i < 20; i++ {
			c.Observe(time.Duration(unitMS) * time.Millisecond)
		}
		return c
	}
	fast := warm(10, 1).Next(100_000)
	slow := warm(40, 1).Next(100_000)
	if fast != 100 {
		t.Errorf("fast Next = %d, want 1000ms/10ms = 100", fast)
	}
	if slow != 25 {
		t.Errorf("slow Next = %d, want 1000ms/40ms = 25", slow)
	}
	if fast != 4*slow {
		t.Errorf("4× service time did not shrink the chunk 4×: fast %d, slow %d", fast, slow)
	}
	if wide := warm(10, 2).Next(100_000); wide != 2*fast {
		t.Errorf("par 2 Next = %d, want %d", wide, 2*fast)
	}
}

// TestChunkCalcFactoringBound: the request never exceeds half the
// reported backlog (rounded up), leaving the tail divisible among the
// rest of the fleet — and an unknown backlog applies no bound.
func TestChunkCalcFactoringBound(t *testing.T) {
	c := newChunkCalc(8, 1, time.Second)
	for i := 0; i < 10; i++ {
		c.Observe(time.Millisecond) // rate bound ≈ 1000 units
	}
	cases := []struct{ remaining, want int }{
		{10, 5},
		{11, 6},
		{1, 1},
		{0, 1}, // empty backlog still requests the 1-unit minimum
	}
	for _, tc := range cases {
		if got := c.Next(tc.remaining); got != tc.want {
			t.Errorf("Next(remaining=%d) = %d, want %d", tc.remaining, got, tc.want)
		}
	}
	if got := c.Next(-1); got != server.DefaultLeaseChunkMax {
		t.Errorf("Next(unknown) = %d, want the %d cap (no factoring bound)", got, server.DefaultLeaseChunkMax)
	}
}

// TestChunkCalcClampMax: sub-millisecond units (a fully warm cache)
// must not request an unbounded chunk.
func TestChunkCalcClampMax(t *testing.T) {
	c := newChunkCalc(8, 8, time.Second)
	for i := 0; i < 10; i++ {
		c.Observe(10 * time.Microsecond)
	}
	if got := c.Next(1_000_000); got != server.DefaultLeaseChunkMax {
		t.Errorf("Next = %d, want clamped to %d", got, server.DefaultLeaseChunkMax)
	}
}

// TestChunkCalcMixShift: a shift from cheap heuristic units to exact
// solves shrinks the next request within a few units, and a return to
// cheap units grows it back as quickly.
func TestChunkCalcMixShift(t *testing.T) {
	c := newChunkCalc(8, 1, time.Second)
	observe := func(n int, d time.Duration) int {
		for i := 0; i < n; i++ {
			c.Observe(d)
		}
		return c.Next(100_000)
	}
	cheap := observe(30, 2*time.Millisecond)
	if slow := observe(5, 500*time.Millisecond); slow >= cheap/10 {
		t.Fatalf("chunk did not shrink as traffic turned to 500 ms units: cheap %d, after 5 slow units %d", cheap, slow)
	}
	if back := observe(30, 2*time.Millisecond); back < cheap*9/10 {
		t.Errorf("chunk did not grow back after a return to 2 ms units: cheap %d, back %d", cheap, back)
	}
}

func TestNormalizeSchedulers(t *testing.T) {
	got := normalizeSchedulers([]string{"twophase", "dms", "twophase", "exact"})
	want := []string{"dms", "exact", "twophase"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeSchedulers = %v, want %v", got, want)
	}
	if normalizeSchedulers(nil) != nil {
		t.Error("nil advertisement must stay nil (wildcard)")
	}
}
