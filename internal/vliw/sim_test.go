package vliw

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/lifetime"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func lat() machine.Latencies { return machine.DefaultLatencies() }

func TestEvalTransparency(t *testing.T) {
	cp := ddg.Node{ID: 7, Class: machine.Copy, Name: "cp"}
	mv := ddg.Node{ID: 8, Class: machine.Move, Name: "mv"}
	v := Value(0xdeadbeef)
	if Eval(cp, 3, []Value{v}) != v || Eval(mv, 9, []Value{v}) != v {
		t.Fatal("copies and moves must forward their operand unchanged")
	}
}

func TestEvalCommutative(t *testing.T) {
	n := ddg.Node{ID: 4, Class: machine.Add, Name: "a"}
	a, b := Value(123), Value(456)
	if Eval(n, 0, []Value{a, b}) != Eval(n, 0, []Value{b, a}) {
		t.Fatal("operand mixing must be commutative")
	}
	other := ddg.Node{ID: 5, Class: machine.Add, Name: "b"}
	if Eval(n, 0, []Value{a, b}) == Eval(other, 0, []Value{a, b}) {
		t.Fatal("different nodes must produce different values")
	}
}

func TestLiveInDistinct(t *testing.T) {
	if LiveIn(1, -1) == LiveIn(1, -2) || LiveIn(1, -1) == LiveIn(2, -1) {
		t.Fatal("live-in values must distinguish node and iteration")
	}
}

func TestReferenceAccumulator(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelPrefixSum(), lat())
	r := NewReference(g, 5)
	// s(i) = Eval(add, x(i), s(i-1)); chase the chain manually.
	var xID, sID int = -1, -1
	g.Nodes(func(n ddg.Node) {
		switch n.Name {
		case "x":
			xID = n.ID
		case "s":
			sID = n.ID
		}
	})
	prev := LiveIn(sID, -1)
	for i := 0; i < 5; i++ {
		want := Eval(g.Node(sID), i, []Value{r.Value(xID, i), prev})
		if got := r.Value(sID, i); got != want {
			t.Fatalf("iter %d: reference %#x, manual %#x", i, uint64(got), uint64(want))
		}
		prev = want
	}
}

// pipeline builds, verifies, allocates and simulates a loop on the
// given machine, returning the store trace.
func pipeline(t testing.TB, l *loop.Loop, clusters int, clustered bool, trip int) (map[string]Value, *Result, *schedule.Schedule) {
	t.Helper()
	g := ddg.FromLoop(l, lat())
	var (
		s   *schedule.Schedule
		err error
	)
	if clustered {
		if clusters >= 2 {
			ddg.InsertCopies(g, ddg.MaxUses)
		}
		s, _, err = core.ScheduleCtx(context.Background(), g, machine.Clustered(clusters), core.Options{})
	} else {
		s, _, err = ims.ScheduleCtx(context.Background(), g, machine.Unclustered(clusters), ims.Options{})
	}
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	if err := schedule.Verify(s); err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	alloc, err := lifetime.Analyze(s)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	res, err := Simulate(s, alloc, trip)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	return res.Stores, res, s
}

func TestSimulateKernelsUnclustered(t *testing.T) {
	for _, k := range perfect.Kernels() {
		trip := 25
		stores, res, s := pipeline(t, k, 2, false, trip)
		want := NewReference(s.Graph(), trip).StoreTrace()
		if len(stores) != len(want) {
			t.Fatalf("%s: %d store values, want %d", k.Name, len(stores), len(want))
		}
		for key, v := range want {
			if stores[key] != v {
				t.Fatalf("%s: store %s = %#x, want %#x", k.Name, key, uint64(stores[key]), uint64(v))
			}
		}
		if res.Pushes != res.Pops {
			t.Errorf("%s: %d pushes but %d pops; queues must drain exactly", k.Name, res.Pushes, res.Pops)
		}
	}
}

// The central end-to-end property: the store trace of the clustered,
// copy-inserted, chain-routed, queue-allocated execution equals the
// store trace of the original untransformed graph.
func TestClusteredExecutionPreservesSemantics(t *testing.T) {
	for _, k := range perfect.Kernels() {
		trip := 20
		orig := NewReference(ddg.FromLoop(k, lat()), trip).StoreTrace()
		for _, clusters := range []int{1, 2, 4, 6, 8} {
			stores, _, _ := pipeline(t, k, clusters, true, trip)
			if len(stores) != len(orig) {
				t.Fatalf("%s on %d clusters: %d stores, want %d", k.Name, clusters, len(stores), len(orig))
			}
			for key, v := range orig {
				if stores[key] != v {
					t.Fatalf("%s on %d clusters: store %s = %#x, want %#x — transformation changed semantics",
						k.Name, clusters, key, uint64(stores[key]), uint64(v))
				}
			}
		}
	}
}

func TestClusteredExecutionCorpusSample(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		trip := l.Trip
		if trip > 40 {
			trip = 40
		}
		orig := NewReference(ddg.FromLoop(l, lat()), trip).StoreTrace()
		for _, clusters := range []int{4, 8} {
			stores, res, _ := pipeline(t, l, clusters, true, trip)
			for key, v := range orig {
				if stores[key] != v {
					t.Fatalf("%s on %d clusters: store %s mismatch", l.Name, clusters, key)
				}
			}
			if res.Pushes != res.Pops {
				t.Errorf("%s: %d pushes but %d pops; queues must drain exactly", l.Name, res.Pushes, res.Pops)
			}
		}
	}
}

func TestObservedDepthWithinAnalyticBound(t *testing.T) {
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 30) {
		g := ddg.FromLoop(l, lat())
		ddg.InsertCopies(g, ddg.MaxUses)
		s, _, err := core.ScheduleCtx(context.Background(), g, machine.Clustered(4), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := lifetime.Analyze(s)
		if err != nil {
			t.Fatal(err)
		}
		trip := l.Trip
		if trip > 60 {
			trip = 60
		}
		res, err := Simulate(s, alloc, trip)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if res.MaxQueueDepth > alloc.MaxDepth() {
			t.Errorf("%s: observed depth %d exceeds analytic bound %d", l.Name, res.MaxQueueDepth, alloc.MaxDepth())
		}
	}
}

func TestSimulateCatchesCrossedQueues(t *testing.T) {
	// Hand-build an allocation that puts two crossing lifetimes in one
	// queue: a is written first but read last, so the FIFO delivers a's
	// value to b's consumer. The simulator must flag it.
	b := loop.NewBuilder("cross")
	a := b.Load("a")
	bb := b.Load("bb")
	ca := b.Add("ca", a)
	cb := b.Add("cb", bb)
	b.Store("sa", ca)
	b.Store("sb", cb)
	g := ddg.FromLoop(b.MustBuild(), lat())
	m := machine.Unclustered(2)
	s := schedule.New(g, m, 6)
	s.Place(0, schedule.Placement{Time: 0}) // a: value ready at 2
	s.Place(1, schedule.Placement{Time: 1}) // bb: ready at 3
	s.Place(2, schedule.Placement{Time: 9}) // ca reads a late
	s.Place(3, schedule.Placement{Time: 4}) // cb reads bb early
	s.Place(4, schedule.Placement{Time: 10})
	s.Place(5, schedule.Placement{Time: 5})
	if err := schedule.Verify(s); err != nil {
		t.Fatal(err)
	}
	// One shared queue for the two crossing load lifetimes; separate
	// queues for the store operands.
	var crossEdges, otherEdges []ddg.Edge
	g.Edges(func(e ddg.Edge) {
		if e.From == 0 || e.From == 1 {
			crossEdges = append(crossEdges, e)
		} else {
			otherEdges = append(otherEdges, e)
		}
	})
	alloc := &lifetime.Allocation{II: 6, ByEdge: make(map[int]lifetime.Place)}
	f := &lifetime.File{Kind: lifetime.LRF}
	f.Queues = [][]lifetime.Lifetime{nil, nil, nil}
	alloc.Files = []*lifetime.File{f}
	for _, e := range crossEdges {
		alloc.ByEdge[e.ID] = lifetime.Place{File: 0, Queue: 0}
	}
	for i, e := range otherEdges {
		alloc.ByEdge[e.ID] = lifetime.Place{File: 0, Queue: 1 + i%2}
	}
	if _, err := Simulate(s, alloc, 3); err == nil {
		t.Fatal("crossed queue allocation went undetected")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	g := ddg.FromLoop(perfect.KernelDot(), lat())
	s, _, err := ims.ScheduleCtx(context.Background(), g, machine.Unclustered(1), ims.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := lifetime.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(s, alloc, 0); err == nil {
		t.Error("trip 0 accepted")
	}
	incomplete := schedule.New(g.Clone(), machine.Unclustered(1), 3)
	if _, err := Simulate(incomplete, alloc, 10); err == nil {
		t.Error("incomplete schedule accepted")
	}
}
