package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
)

// TestKeyInjectiveOnInputs is the cache-key property test: over a
// corpus of distinct (loop, machine, scheduler, options) quadruples,
// no two keys collide. A collision would silently serve one job's
// schedule for another, so the test sweeps every axis: 50 corpus
// loops, machines differing in family, width, unit mix and latency
// model, all registered schedulers, and options differing in each
// field.
func TestKeyInjectiveOnInputs(t *testing.T) {
	loops := perfect.CorpusN(perfect.DefaultSeed, 50)

	slowLoads := machine.Clustered(4)
	slowLoads.Lat[machine.Load] = 5 // same shape as Clustered(4), other latencies
	machines := []*machine.Machine{
		machine.Clustered(2),
		machine.Clustered(4),
		machine.Unclustered(2),
		machine.Unclustered(4),
		machine.ClusteredWithCopyFUs(4, 2),
		slowLoads,
	}
	options := []driver.Options{
		{},
		{BudgetRatio: 3},
		{MaxII: 40},
		{DisableChains: true},
		{OneDirectionOnly: true},
		{RefinementPasses: 3},
		{LoadSlack: 2},
	}

	seen := make(map[string]string)
	add := func(key, desc string) {
		t.Helper()
		if prev, dup := seen[key]; dup {
			t.Fatalf("key collision:\n  %s\n  %s", prev, desc)
		}
		seen[key] = desc
	}
	for _, l := range loops {
		for _, m := range machines {
			for _, name := range driver.Names() {
				for oi, opt := range options {
					add(Key(l, m, name, opt),
						fmt.Sprintf("%s/%s/%s/opt%d", l.Name, m.Name, name, oi))
				}
			}
		}
	}
	t.Logf("%d distinct keys", len(seen))

	// Single-field loop mutations must change the key too.
	base := perfect.KernelDot()
	baseKey := Key(base, machines[0], "dms", driver.Options{})
	tripped := base.Clone()
	tripped.Trip++
	renamed := base.Clone()
	renamed.Ops = append([]loop.Op(nil), renamed.Ops...)
	renamed.Ops[0].Name += "x"
	carried := base.Clone()
	carried.Deps = append([]loop.Dep(nil), carried.Deps...)
	carried.Deps[len(carried.Deps)-1].Distance++
	for _, mut := range []*loop.Loop{tripped, renamed, carried} {
		if Key(mut, machines[0], "dms", driver.Options{}) == baseKey {
			t.Errorf("mutated loop %s collides with the original", mut.Name)
		}
	}
}

// TestKeyCanonicalizesLoopText is the flip side of injectivity:
// semantically identical loops must always hit. Any source that parses
// to the same loop — reordered whitespace, comments, explicit @0
// distances, the canonical re-serialization itself — shares the key.
func TestKeyCanonicalizesLoopText(t *testing.T) {
	m := machine.Clustered(4)
	canonical, err := loop.ParseString("loop dot trip 100\nx = load\ny = load\nm = mul x, y\nacc = add m, acc@1\nout = store acc\n")
	if err != nil {
		t.Fatal(err)
	}
	want := Key(canonical, m, "dms", driver.Options{})

	variants := []string{
		// comments, blank lines, ragged spacing
		"# dot product\nloop dot trip 100\n\n  x = load\ny   =   load\nm = mul   x ,  y\nacc = add m, acc@1  # recurrence\nout = store acc\n",
		// explicit distance-0 suffixes
		"loop dot trip 100\nx = load\ny = load\nm = mul x@0, y@0\nacc = add m, acc@1\nout = store acc\n",
		// the canonical re-serialization
		loop.Format(canonical),
	}
	for i, src := range variants {
		l, err := loop.ParseString(src)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got := Key(l, m, "dms", driver.Options{}); got != want {
			t.Errorf("variant %d: key %s, want %s", i, got, want)
		}
	}
}

func TestCacheLRUEvictsColdEntries(t *testing.T) {
	c := NewCache(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.lookup("a", true); !ok { // touch: a is now warmer than b
		t.Fatal("a missing")
	}
	c.Add("c", 3)
	if _, ok := c.lookup("b", true); ok {
		t.Error("b survived eviction although it was coldest")
	}
	if _, ok := c.lookup("a", true); !ok {
		t.Error("a evicted although it was recently used")
	}
	if _, ok := c.lookup("c", true); !ok {
		t.Error("c missing")
	}
	met := c.Metrics()
	if met.Evictions != 1 || met.Entries != 2 {
		t.Errorf("metrics = %+v, want 1 eviction and 2 entries", met)
	}
}

// TestCacheDoSingleFlight pins the deduplication guarantee: N
// concurrent Do calls for one key run compute exactly once, everyone
// gets the value, and the joiners are counted as shared.
func TestCacheDoSingleFlight(t *testing.T) {
	c := NewCache(8)
	const n = 16
	computing := make(chan struct{})
	release := make(chan struct{})
	var computes int
	var wg sync.WaitGroup
	leaderErr := make(chan error, 1)
	go func() {
		_, hit, err := c.Do(context.Background(), "k", func() (any, error) {
			computes++ // single-flight: only this goroutine ever runs compute
			close(computing)
			<-release
			return 42, nil
		})
		if hit {
			err = errors.New("leader reported a hit")
		}
		leaderErr <- err
	}()
	<-computing // the flight is registered; everyone below must join it
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, hit, err := c.Do(context.Background(), "k", func() (any, error) {
				return nil, errors.New("follower ran compute")
			})
			if err != nil || !hit || val.(int) != 42 {
				t.Errorf("follower: val=%v hit=%v err=%v", val, hit, err)
			}
		}()
	}
	// The leader is parked on release, so no follower can complete (or
	// hit the cache) yet: wait until all n have joined the flight.
	for c.Metrics().Shared < n {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
	met := c.Metrics()
	if met.Misses != 1 || met.Shared != n {
		t.Errorf("metrics = %+v, want 1 miss and %d shared", met, n)
	}
}

// TestCacheDoFollowerTakesOverCanceledLeader: a leader whose client
// hung up must not poison concurrent identical requests — a live
// follower retries as the new leader.
func TestCacheDoFollowerTakesOverCanceledLeader(t *testing.T) {
	c := NewCache(8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(leaderCtx, "k", func() (any, error) {
			close(computing)
			<-release
			return nil, leaderCtx.Err() // canceled mid-compile
		})
	}()
	<-computing

	followerDone := make(chan error, 1)
	go func() {
		val, _, err := c.Do(context.Background(), "k", func() (any, error) {
			return "rescued", nil
		})
		if err == nil && val.(string) != "rescued" {
			err = fmt.Errorf("val = %v", val)
		}
		followerDone <- err
	}()
	cancelLeader()
	close(release)
	if err := <-followerDone; err != nil {
		t.Fatalf("follower did not take over: %v", err)
	}
	if _, ok := c.lookup("k", true); !ok {
		t.Error("rescued value was not cached")
	}
}

// TestCacheDoErrorsNotCached: a failed compute is retried by the next
// call instead of being served forever.
func TestCacheDoErrorsNotCached(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	val, hit, err := c.Do(context.Background(), "k", func() (any, error) { return 7, nil })
	if err != nil || hit || val.(int) != 7 {
		t.Fatalf("retry: val=%v hit=%v err=%v", val, hit, err)
	}
}
