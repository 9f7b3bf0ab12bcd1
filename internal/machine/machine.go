// Package machine models the clustered VLIW architecture targeted by
// distributed modulo scheduling (Fernandes, Llosa, Topham; HPCA 1999).
//
// The machine is a collection of identical clusters connected in a
// bi-directional ring. Each cluster holds a small set of functional
// units (a load/store unit, an adder, a multiplier and a copy unit), a
// local queue register file (LRF), and shares one communication queue
// register file (CQRF) with each of its two ring neighbours. Values
// move between directly-connected clusters with fixed timing and no
// explicit instruction: the producer writes the CQRF and the consumer
// reads it. Values that must travel further are forwarded by explicit
// move operations executing on the copy units of intermediate clusters.
//
// The package also models the unclustered reference machine used by the
// paper's evaluation: the same functional units pooled behind a single
// central register file with no communication constraints.
package machine

import (
	"errors"
	"fmt"
)

// FUKind identifies a class of functional unit within a cluster.
type FUKind int

const (
	// FUMem executes loads and stores (the paper's "L/S" unit).
	FUMem FUKind = iota
	// FUAdd executes additions, subtractions, comparisons and other
	// single-cycle integer/FP ALU operations.
	FUAdd
	// FUMul executes multiplies and divides.
	FUMul
	// FUCopy executes copy and move operations. Copy units perform no
	// useful computation and are excluded from performance accounting,
	// but they occupy schedule slots and can bound the II (paper §4).
	FUCopy

	// NumFUKinds is the number of distinct functional unit kinds.
	NumFUKinds = iota
)

var fuKindNames = [NumFUKinds]string{"L/S", "ADD", "MUL", "COPY"}

// String returns the paper's name for the unit kind.
func (k FUKind) String() string {
	if k < 0 || int(k) >= NumFUKinds {
		return fmt.Sprintf("FUKind(%d)", int(k))
	}
	return fuKindNames[k]
}

// OpClass identifies the semantic class of a machine operation. The
// class determines both the functional unit kind that executes the
// operation and its latency.
type OpClass int

const (
	// Load reads a value from memory.
	Load OpClass = iota
	// Store writes a value to memory. Stores produce no register value.
	Store
	// Add covers additions, subtractions, logic and compare operations.
	Add
	// Mul is a multiply.
	Mul
	// Div is a divide (executes on the multiplier unit).
	Div
	// Copy duplicates a register value inside a cluster. Copies are
	// inserted by the pre-scheduling pass that limits every operation
	// to at most two immediate data-dependent successors (paper §3).
	Copy
	// Move forwards a value between adjacent clusters: it reads one
	// CQRF and writes the next one. Chains of moves implement
	// communication between indirectly-connected clusters (paper §3).
	Move

	// NumOpClasses is the number of operation classes.
	NumOpClasses = iota
)

var opClassNames = [NumOpClasses]string{"load", "store", "add", "mul", "div", "copy", "move"}

// String returns the lower-case mnemonic of the class, as used by the
// textual loop format.
func (c OpClass) String() string {
	if c < 0 || int(c) >= NumOpClasses {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opClassNames[c]
}

// ParseOpClass converts a mnemonic (as produced by OpClass.String) back
// into an OpClass.
func ParseOpClass(s string) (OpClass, error) {
	for i, n := range opClassNames {
		if n == s {
			return OpClass(i), nil
		}
	}
	return 0, fmt.Errorf("machine: unknown operation class %q", s)
}

// FU returns the functional unit kind that executes the class.
func (c OpClass) FU() FUKind {
	switch c {
	case Load, Store:
		return FUMem
	case Add:
		return FUAdd
	case Mul, Div:
		return FUMul
	case Copy, Move:
		return FUCopy
	default:
		panic(fmt.Sprintf("machine: invalid op class %d", int(c)))
	}
}

// Useful reports whether operations of this class perform computation
// that counts toward the paper's performance figures. Copy and move
// operations do not (paper §4: "these functional units and operations
// are not considered to estimate performance figures").
func (c OpClass) Useful() bool { return c != Copy && c != Move }

// Produces reports whether operations of this class define a register
// value that downstream operations can consume.
func (c OpClass) Produces() bool { return c != Store }

// Latencies holds the cycle latency of each operation class. The paper
// does not publish its latency table; the defaults are classic VLIW
// values (cf. the HP Labs PlayDoh model used by Rau's IMS paper).
type Latencies [NumOpClasses]int

// DefaultLatencies returns the latency model used throughout the
// reproduction: load 2, store 1, add 1, mul 3, div 8, copy 1, move 1.
func DefaultLatencies() Latencies {
	var l Latencies
	l[Load] = 2
	l[Store] = 1
	l[Add] = 1
	l[Mul] = 3
	l[Div] = 8
	l[Copy] = 1
	l[Move] = 1
	return l
}

// Of returns the latency of the class.
func (l Latencies) Of(c OpClass) int { return l[c] }

// Upper bounds on a machine description. A compile request describes
// its own machine, and the schedulers size their tables by it — DMS
// keeps chain paths for every ordered pair of clusters — so Validate
// refuses a machine past these bounds before anything is allocated for
// it. They sit far above the paper's evaluation, which stops at 10
// clusters of one unit of each kind.
const (
	// MaxClusters bounds Machine.Clusters.
	MaxClusters = 64
	// MaxUnitsPerKind bounds each per-cluster functional unit count.
	MaxUnitsPerKind = 64
	// MaxLatency bounds the latency of every operation class.
	MaxLatency = 64
)

// Validate checks that every class has a latency in [1, MaxLatency].
func (l Latencies) Validate() error {
	for c := OpClass(0); c < NumOpClasses; c++ {
		if l[c] <= 0 {
			return fmt.Errorf("machine: class %v has non-positive latency %d", c, l[c])
		}
		if l[c] > MaxLatency {
			return fmt.Errorf("machine: class %v has latency %d, above the limit of %d", c, l[c], MaxLatency)
		}
	}
	return nil
}

// Machine describes one machine configuration: a number of clusters,
// the per-cluster functional unit counts, and the latency model. The
// zero value is not a valid machine; use Clustered, Unclustered or
// New.
type Machine struct {
	// Name labels the configuration in reports.
	Name string
	// Clusters is the number of clusters in the ring (≥ 1). An
	// unclustered machine is modelled as a single cluster holding the
	// pooled functional units.
	Clusters int
	// PerCluster holds the number of functional units of each kind in
	// every cluster (clusters are homogeneous, as in the paper).
	PerCluster [NumFUKinds]int
	// Lat is the latency model.
	Lat Latencies
}

// Clustered returns the paper's clustered configuration with c
// clusters, each holding 1 L/S, 1 ADD, 1 MUL and 1 COPY unit.
func Clustered(c int) *Machine {
	m := &Machine{
		Name:     fmt.Sprintf("clustered-%d", c),
		Clusters: c,
		Lat:      DefaultLatencies(),
	}
	m.PerCluster[FUMem] = 1
	m.PerCluster[FUAdd] = 1
	m.PerCluster[FUMul] = 1
	m.PerCluster[FUCopy] = 1
	return m
}

// ClusteredWithCopyFUs returns a clustered configuration with extra
// copy units per cluster, the "additional hardware support" the paper
// suggests for wide configurations (§4, §5).
func ClusteredWithCopyFUs(c, copyFUs int) *Machine {
	m := Clustered(c)
	m.Name = fmt.Sprintf("clustered-%d-copy%d", c, copyFUs)
	m.PerCluster[FUCopy] = copyFUs
	return m
}

// Unclustered returns the unclustered reference machine equivalent to c
// clusters: a single cluster with c L/S, c ADD and c MUL units, a
// central register file and no copy unit (no copies or moves are ever
// needed).
func Unclustered(c int) *Machine {
	m := &Machine{
		Name:     fmt.Sprintf("unclustered-%dfu", 3*c),
		Clusters: 1,
		Lat:      DefaultLatencies(),
	}
	m.PerCluster[FUMem] = c
	m.PerCluster[FUAdd] = c
	m.PerCluster[FUMul] = c
	return m
}

// New returns a machine with explicit parameters.
func New(name string, clusters int, perCluster [NumFUKinds]int, lat Latencies) *Machine {
	return &Machine{Name: name, Clusters: clusters, PerCluster: perCluster, Lat: lat}
}

// Validate checks the structural invariants of the configuration and
// the bounds MaxClusters, MaxUnitsPerKind and MaxLatency.
func (m *Machine) Validate() error {
	if m.Clusters < 1 {
		return fmt.Errorf("machine %s: must have at least one cluster, got %d", m.Name, m.Clusters)
	}
	if m.Clusters > MaxClusters {
		return fmt.Errorf("machine %s: %d clusters, above the limit of %d", m.Name, m.Clusters, MaxClusters)
	}
	for k := FUKind(0); int(k) < NumFUKinds; k++ {
		if m.PerCluster[k] < 0 {
			return fmt.Errorf("machine %s: negative %v unit count", m.Name, k)
		}
		if m.PerCluster[k] > MaxUnitsPerKind {
			return fmt.Errorf("machine %s: %d %v units per cluster, above the limit of %d", m.Name, m.PerCluster[k], k, MaxUnitsPerKind)
		}
	}
	if m.PerCluster[FUMem]+m.PerCluster[FUAdd]+m.PerCluster[FUMul] == 0 {
		return errors.New("machine " + m.Name + ": no useful functional units")
	}
	return m.Lat.Validate()
}

// Capacity returns the number of functional units of kind k available
// in the given cluster (clusters are homogeneous, so the cluster index
// only participates in bounds checking).
func (m *Machine) Capacity(cluster int, k FUKind) int {
	if cluster < 0 || cluster >= m.Clusters {
		panic(fmt.Sprintf("machine %s: cluster %d out of range [0,%d)", m.Name, cluster, m.Clusters))
	}
	return m.PerCluster[k]
}

// TotalFUs returns the machine-wide number of functional units of kind k.
func (m *Machine) TotalFUs(k FUKind) int { return m.Clusters * m.PerCluster[k] }

// UsefulFUs returns the machine-wide number of functional units that
// perform useful computation (everything except copy units). This is
// the x-axis of the paper's Figures 5 and 6.
func (m *Machine) UsefulFUs() int {
	return m.TotalFUs(FUMem) + m.TotalFUs(FUAdd) + m.TotalFUs(FUMul)
}

// String returns a short description of the configuration.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d cluster(s) × [%d %v, %d %v, %d %v, %d %v]",
		m.Name, m.Clusters,
		m.PerCluster[FUMem], FUMem, m.PerCluster[FUAdd], FUAdd,
		m.PerCluster[FUMul], FUMul, m.PerCluster[FUCopy], FUCopy)
}
