package machine

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFUKindString(t *testing.T) {
	cases := map[FUKind]string{FUMem: "L/S", FUAdd: "ADD", FUMul: "MUL", FUCopy: "COPY"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("FUKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := FUKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range FUKind string = %q", got)
	}
}

func TestOpClassString(t *testing.T) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		s := c.String()
		back, err := ParseOpClass(s)
		if err != nil {
			t.Fatalf("ParseOpClass(%q): %v", s, err)
		}
		if back != c {
			t.Errorf("round trip %v -> %q -> %v", c, s, back)
		}
	}
	if _, err := ParseOpClass("bogus"); err == nil {
		t.Error("ParseOpClass accepted bogus mnemonic")
	}
}

func TestOpClassFU(t *testing.T) {
	cases := map[OpClass]FUKind{
		Load: FUMem, Store: FUMem,
		Add: FUAdd,
		Mul: FUMul, Div: FUMul,
		Copy: FUCopy, Move: FUCopy,
	}
	for c, want := range cases {
		if got := c.FU(); got != want {
			t.Errorf("%v.FU() = %v, want %v", c, got, want)
		}
	}
}

func TestOpClassUseful(t *testing.T) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		want := c != Copy && c != Move
		if got := c.Useful(); got != want {
			t.Errorf("%v.Useful() = %v, want %v", c, got, want)
		}
	}
}

func TestOpClassProduces(t *testing.T) {
	if Store.Produces() {
		t.Error("store must not produce a register value")
	}
	for _, c := range []OpClass{Load, Add, Mul, Div, Copy, Move} {
		if !c.Produces() {
			t.Errorf("%v must produce a value", c)
		}
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if err := l.Validate(); err != nil {
		t.Fatalf("default latencies invalid: %v", err)
	}
	if l.Of(Load) != 2 || l.Of(Mul) != 3 || l.Of(Add) != 1 {
		t.Errorf("unexpected default latencies: %+v", l)
	}
	var zero Latencies
	if err := zero.Validate(); err == nil {
		t.Error("zero latencies should not validate")
	}
}

func TestClusteredConfiguration(t *testing.T) {
	for c := 1; c <= 10; c++ {
		m := Clustered(c)
		if err := m.Validate(); err != nil {
			t.Fatalf("Clustered(%d): %v", c, err)
		}
		if m.Clusters != c {
			t.Errorf("Clustered(%d).Clusters = %d", c, m.Clusters)
		}
		if got := m.UsefulFUs(); got != 3*c {
			t.Errorf("Clustered(%d).UsefulFUs() = %d, want %d", c, got, 3*c)
		}
		if got := m.TotalFUs(FUCopy); got != c {
			t.Errorf("Clustered(%d) copy units = %d, want %d", c, got, c)
		}
	}
}

func TestUnclusteredConfiguration(t *testing.T) {
	for c := 1; c <= 10; c++ {
		m := Unclustered(c)
		if err := m.Validate(); err != nil {
			t.Fatalf("Unclustered(%d): %v", c, err)
		}
		if m.Clusters != 1 {
			t.Errorf("Unclustered(%d).Clusters = %d, want 1", c, m.Clusters)
		}
		if got := m.UsefulFUs(); got != 3*c {
			t.Errorf("Unclustered(%d).UsefulFUs() = %d, want %d", c, got, 3*c)
		}
		if got := m.TotalFUs(FUCopy); got != 0 {
			t.Errorf("Unclustered(%d) has %d copy units, want 0", c, got)
		}
	}
}

func TestClusteredWithCopyFUs(t *testing.T) {
	m := ClusteredWithCopyFUs(4, 2)
	if got := m.Capacity(0, FUCopy); got != 2 {
		t.Errorf("copy capacity = %d, want 2", got)
	}
	if got := m.UsefulFUs(); got != 12 {
		t.Errorf("UsefulFUs = %d, want 12 (copy units excluded)", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []*Machine{
		{Name: "no-clusters", Clusters: 0, Lat: DefaultLatencies()},
		{Name: "no-fus", Clusters: 1, Lat: DefaultLatencies()},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid machine", m.Name)
		}
	}
	neg := Clustered(2)
	neg.PerCluster[FUAdd] = -1
	if err := neg.Validate(); err == nil {
		t.Error("Validate() accepted negative unit count")
	}

	// The bounds: a machine at each limit passes, one past it fails.
	atLimit := Clustered(MaxClusters)
	atLimit.PerCluster[FUMem] = MaxUnitsPerKind
	atLimit.Lat[Div] = MaxLatency
	if err := atLimit.Validate(); err != nil {
		t.Errorf("Validate() refused a machine at the limits: %v", err)
	}
	units := Clustered(2)
	units.PerCluster[FUCopy] = MaxUnitsPerKind + 1
	lat := Clustered(2)
	lat.Lat[Mul] = MaxLatency + 1
	for _, m := range []*Machine{Clustered(MaxClusters + 1), Clustered(100000), Unclustered(MaxUnitsPerKind + 1), units, lat} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted a machine past the limits", m)
		}
	}
}

func TestCapacityBounds(t *testing.T) {
	m := Clustered(3)
	if got := m.Capacity(2, FUMul); got != 1 {
		t.Errorf("Capacity(2, MUL) = %d, want 1", got)
	}
	mustPanic(t, "out-of-range cluster", func() { m.Capacity(3, FUMul) })
	mustPanic(t, "negative cluster", func() { m.Capacity(-1, FUMul) })
}

func TestString(t *testing.T) {
	s := Clustered(4).String()
	for _, want := range []string{"clustered-4", "4 cluster", "L/S", "COPY"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// Ring metric properties, checked over random cluster counts and pairs.
func TestRingDistanceProperties(t *testing.T) {
	prop := func(rawC, rawA, rawB uint8) bool {
		c := int(rawC%10) + 1
		m := Clustered(c)
		a, b := int(rawA)%c, int(rawB)%c
		d := m.RingDistance(a, b)
		// Symmetry, identity, and bound c/2.
		if d != m.RingDistance(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		return d <= c/2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRingDistanceTriangleInequality(t *testing.T) {
	prop := func(rawC, rawA, rawB, rawX uint8) bool {
		c := int(rawC%10) + 1
		m := Clustered(c)
		a, b, x := int(rawA)%c, int(rawB)%c, int(rawX)%c
		return m.RingDistance(a, b) <= m.RingDistance(a, x)+m.RingDistance(x, b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacencySmallRings(t *testing.T) {
	// Rings of up to 3 clusters are fully connected; that is why the
	// paper sees no communication conflicts below 4 clusters (§4).
	for c := 1; c <= 3; c++ {
		m := Clustered(c)
		for a := 0; a < c; a++ {
			for b := 0; b < c; b++ {
				if !m.Adjacent(a, b) {
					t.Errorf("%d clusters: %d and %d should be adjacent", c, a, b)
				}
			}
		}
	}
	m := Clustered(4)
	if m.Adjacent(0, 2) {
		t.Error("4 clusters: 0 and 2 must not be adjacent")
	}
	if !m.Adjacent(0, 3) {
		t.Error("4 clusters: 0 and 3 wrap around the ring and are adjacent")
	}
}

func TestNeighbour(t *testing.T) {
	m := Clustered(5)
	if got := m.Neighbour(4, +1); got != 0 {
		t.Errorf("Neighbour(4,+1) = %d, want 0", got)
	}
	if got := m.Neighbour(0, -1); got != 4 {
		t.Errorf("Neighbour(0,-1) = %d, want 4", got)
	}
	mustPanic(t, "bad direction", func() { m.Neighbour(0, 2) })
}

func TestChainPathsSameCluster(t *testing.T) {
	m := Clustered(4)
	ps := m.ChainPaths(2, 2)
	if len(ps) != 1 || ps[0].Moves() != 0 {
		t.Fatalf("ChainPaths(2,2) = %+v, want single empty path", ps)
	}
}

func TestChainPathsAdjacent(t *testing.T) {
	m := Clustered(6)
	ps := m.ChainPaths(0, 1)
	if len(ps) != 2 {
		t.Fatalf("want two directional paths, got %d", len(ps))
	}
	if ps[0].Moves() != 0 {
		t.Errorf("shortest path to an adjacent cluster needs %d moves, want 0", ps[0].Moves())
	}
	if ps[1].Moves() != 4 {
		t.Errorf("long way round needs %d moves, want 4", ps[1].Moves())
	}
}

func TestChainPathsOpposite(t *testing.T) {
	m := Clustered(6)
	ps := m.ChainPaths(0, 3)
	if len(ps) != 2 {
		t.Fatalf("want two paths, got %d", len(ps))
	}
	// Both directions need exactly 2 moves but traverse different
	// clusters — the flexibility the bi-directional ring provides.
	if ps[0].Moves() != 2 || ps[1].Moves() != 2 {
		t.Errorf("moves = %d,%d, want 2,2", ps[0].Moves(), ps[1].Moves())
	}
	if ps[0].Via[0] == ps[1].Via[0] {
		t.Error("the two directions should route through different clusters")
	}
}

// Each path must walk the ring one hop at a time from Src to Dst, and
// the two directions together must cover every other cluster exactly
// once.
func TestChainPathsProperties(t *testing.T) {
	prop := func(rawC, rawS, rawD uint8) bool {
		c := int(rawC%10) + 1
		m := Clustered(c)
		src, dst := int(rawS)%c, int(rawD)%c
		paths := m.ChainPaths(src, dst)
		if src == dst {
			return len(paths) == 1 && paths[0].Moves() == 0
		}
		if len(paths) != 2 {
			return false
		}
		seen := map[int]int{}
		for _, p := range paths {
			cur := src
			for _, v := range p.Via {
				if v != m.Neighbour(cur, p.Dir) {
					return false
				}
				seen[v]++
				cur = v
			}
			if m.Neighbour(cur, p.Dir) != dst {
				return false
			}
			// Moves needed = hop count - 1.
			hops := p.Moves() + 1
			if p.Dir == +1 {
				if hops != ((dst-src)%c+c)%c {
					return false
				}
			} else {
				if hops != ((src-dst)%c+c)%c {
					return false
				}
			}
		}
		if len(seen) != c-2 {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
