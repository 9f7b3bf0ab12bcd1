// Package ddg builds and manipulates the data dependence graphs that
// drive modulo scheduling.
//
// A Graph starts as a one-to-one image of a loop body (package loop)
// and is then transformed by compiler passes: the copy-insertion
// prepass limits every operation to at most two immediate
// data-dependent successors (paper §3), and the DMS scheduler inserts
// and removes chains of move operations while it works (paper Figure
// 3). Nodes and edges therefore support dynamic insertion and removal;
// removed entities keep their IDs but are marked dead.
//
// The package also computes the classic modulo-scheduling lower bounds
// (ResMII, RecMII, MII), height-based scheduling priorities, and
// strongly connected components (recurrences).
package ddg

import (
	"fmt"

	"repro/internal/loop"
	"repro/internal/machine"
)

// MemDelay is the serialisation delay of a memory ordering dependence:
// a dependent memory operation may issue one cycle after its
// predecessor (same-iteration case).
const MemDelay = 1

// NodeKind says how a node came to exist.
type NodeKind int

const (
	// Original nodes mirror operations of the source loop.
	Original NodeKind = iota
	// CopyNode nodes are inserted by the pre-scheduling pass that
	// rewrites multiple-use lifetimes (paper §3).
	CopyNode
	// MoveNode nodes belong to a DMS chain forwarding a value across
	// intermediate clusters.
	MoveNode
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case Original:
		return "original"
	case CopyNode:
		return "copy"
	case MoveNode:
		return "move"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one operation in the dependence graph.
type Node struct {
	ID    int
	Class machine.OpClass
	Name  string
	Kind  NodeKind
	// Orig is the source-loop operation for Original nodes, -1
	// otherwise.
	Orig loop.ID
}

// Edge is a dependence: t(To) ≥ t(From) + Delay − II·Distance in any
// valid schedule with initiation interval II.
type Edge struct {
	ID       int
	From, To int
	// Delay is the minimum issue separation in cycles (producer
	// latency for value flows, MemDelay for memory ordering).
	Delay int
	// Distance is the iteration distance.
	Distance int
	// Carries marks true data dependences, which move a register value
	// and are therefore subject to the clustered machine's
	// communication constraints. Memory ordering edges do not carry.
	Carries bool
}

// Graph is a mutable data dependence graph.
type Graph struct {
	name      string
	lat       machine.Latencies
	nodes     []Node
	nodeAlive []bool
	edges     []Edge
	edgeAlive []bool
	out, in   [][]int // edge IDs, may contain dead entries
	aliveN    int
	aliveE    int
}

// FromLoop builds the dependence graph of a validated loop: one node
// per operation, one edge per dependence. Flow edges get the producer's
// latency as delay; memory edges get MemDelay.
//
// Every array is sized for the loop up front, and the nodes' adjacency
// lists are carved out of one shared array by degree, so building the
// graph does not grow a slice. (Each list is capped at its carved
// length: a later AddEdge past it moves that list to its own array.)
func FromLoop(l *loop.Loop, lat machine.Latencies) *Graph {
	n, m := len(l.Ops), len(l.Deps)
	g := &Graph{
		name:      l.Name,
		lat:       lat,
		nodes:     make([]Node, 0, n),
		nodeAlive: make([]bool, 0, n),
		edges:     make([]Edge, 0, m),
		edgeAlive: make([]bool, 0, m),
		out:       make([][]int, 0, n),
		in:        make([][]int, 0, n),
	}
	for _, op := range l.Ops {
		g.addNode(Node{Class: op.Class, Name: op.Name, Kind: Original, Orig: op.ID})
	}
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, d := range l.Deps {
		deg[d.From]++
		deg[n+int(d.To)]++
	}
	adj := make([]int, 2*m)
	for i := range n {
		g.out[i], adj = adj[:0:deg[i]], adj[deg[i]:]
		g.in[i], adj = adj[:0:deg[n+i]], adj[deg[n+i]:]
	}
	for _, d := range l.Deps {
		switch d.Kind {
		case loop.Flow:
			g.AddEdge(int(d.From), int(d.To), lat.Of(l.Ops[d.From].Class), d.Distance, true)
		case loop.MemOrder:
			g.AddEdge(int(d.From), int(d.To), MemDelay, d.Distance, false)
		}
	}
	return g
}

// Name returns the name of the source loop.
func (g *Graph) Name() string { return g.name }

// Lat returns the latency model the graph was built with.
func (g *Graph) Lat() machine.Latencies { return g.lat }

// Clone returns a deep copy (dead entities included, so IDs coincide).
func (g *Graph) Clone() *Graph {
	c := &Graph{name: g.name, lat: g.lat, aliveN: g.aliveN, aliveE: g.aliveE}
	c.nodes = append([]Node(nil), g.nodes...)
	c.nodeAlive = append([]bool(nil), g.nodeAlive...)
	c.edges = append([]Edge(nil), g.edges...)
	c.edgeAlive = append([]bool(nil), g.edgeAlive...)
	c.out = make([][]int, len(g.out))
	c.in = make([][]int, len(g.in))
	for i := range g.out {
		c.out[i] = append([]int(nil), g.out[i]...)
		c.in[i] = append([]int(nil), g.in[i]...)
	}
	return c
}

func (g *Graph) addNode(n Node) int {
	n.ID = len(g.nodes)
	if n.Kind != Original {
		n.Orig = -1
	}
	g.nodes = append(g.nodes, n)
	g.nodeAlive = append(g.nodeAlive, true)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.aliveN++
	return n.ID
}

// AddNode appends a live node of the given class and kind and returns
// its ID. Orig is recorded only for Original nodes.
func (g *Graph) AddNode(class machine.OpClass, kind NodeKind, name string, orig loop.ID) int {
	return g.addNode(Node{Class: class, Name: name, Kind: kind, Orig: orig})
}

// AddEdge appends a live edge and returns its ID.
func (g *Graph) AddEdge(from, to, delay, distance int, carries bool) int {
	g.checkNode(from)
	g.checkNode(to)
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Delay: delay, Distance: distance, Carries: carries})
	g.edgeAlive = append(g.edgeAlive, true)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.aliveE++
	return id
}

// RemoveEdge marks an edge dead.
func (g *Graph) RemoveEdge(id int) {
	if !g.edgeAlive[id] {
		panic(fmt.Sprintf("ddg %s: edge %d removed twice", g.name, id))
	}
	g.edgeAlive[id] = false
	g.aliveE--
}

// RemoveNode marks a node dead. All its edges must already be removed.
func (g *Graph) RemoveNode(id int) {
	if !g.nodeAlive[id] {
		panic(fmt.Sprintf("ddg %s: node %d removed twice", g.name, id))
	}
	for _, e := range g.out[id] {
		if g.edgeAlive[e] {
			panic(fmt.Sprintf("ddg %s: removing node %d with live out-edge %d", g.name, id, e))
		}
	}
	for _, e := range g.in[id] {
		if g.edgeAlive[e] {
			panic(fmt.Sprintf("ddg %s: removing node %d with live in-edge %d", g.name, id, e))
		}
	}
	g.nodeAlive[id] = false
	g.aliveN--
}

// NumIDs returns the ID space size (live and dead nodes).
func (g *Graph) NumIDs() int { return len(g.nodes) }

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.aliveN }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.aliveE }

// Alive reports whether node id is live.
func (g *Graph) Alive(id int) bool { return g.nodeAlive[id] }

// EdgeAlive reports whether edge id is live.
func (g *Graph) EdgeAlive(id int) bool { return g.edgeAlive[id] }

// Node returns node metadata. The node may be dead.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Edge returns edge metadata. The edge may be dead.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Nodes calls f for every live node ID in increasing order.
func (g *Graph) Nodes(f func(Node)) {
	for i, alive := range g.nodeAlive {
		if alive {
			f(g.nodes[i])
		}
	}
}

// NodeIDs returns the live node IDs in increasing order.
func (g *Graph) NodeIDs() []int {
	ids := make([]int, 0, g.aliveN)
	for i, alive := range g.nodeAlive {
		if alive {
			ids = append(ids, i)
		}
	}
	return ids
}

// OutEdgeIDs returns the node's out-edge IDs — live and dead, in
// insertion order — as a view of the graph's internal adjacency list.
// Callers must not mutate it and must filter with EdgeAlive. This is
// the allocation-free iteration surface of the scheduling inner loops;
// Out/In remain for callers that want the filtered copy.
func (g *Graph) OutEdgeIDs(id int) []int { return g.out[id] }

// InEdgeIDs returns the node's in-edge IDs — live and dead, in
// insertion order — as a view of the graph's internal adjacency list.
// Callers must not mutate it and must filter with EdgeAlive.
func (g *Graph) InEdgeIDs(id int) []int { return g.in[id] }

// EdgeAt returns a pointer to edge metadata for allocation- and
// copy-free reads. The edge may be dead. The pointer is invalidated by
// the next AddEdge; callers must not retain or mutate it.
func (g *Graph) EdgeAt(id int) *Edge { return &g.edges[id] }

// Out returns the live out-edges of a node, in insertion order.
func (g *Graph) Out(id int) []Edge {
	var out []Edge
	for _, e := range g.out[id] {
		if g.edgeAlive[e] {
			out = append(out, g.edges[e])
		}
	}
	return out
}

// In returns the live in-edges of a node, in insertion order. For
// carried (flow) edges this is the node's operand list.
func (g *Graph) In(id int) []Edge {
	var in []Edge
	for _, e := range g.in[id] {
		if g.edgeAlive[e] {
			in = append(in, g.edges[e])
		}
	}
	return in
}

// Edges calls f for every live edge in ID order.
func (g *Graph) Edges(f func(Edge)) {
	for i, alive := range g.edgeAlive {
		if alive {
			f(g.edges[i])
		}
	}
}

// CountKinds returns the number of live nodes per functional unit kind;
// the input of ResMII.
func (g *Graph) CountKinds() [machine.NumFUKinds]int {
	var n [machine.NumFUKinds]int
	g.Nodes(func(nd Node) { n[nd.Class.FU()]++ })
	return n
}

// UsefulOps returns the number of live nodes that perform useful
// computation (everything but copies and moves); the numerator of the
// paper's IPC metric.
func (g *Graph) UsefulOps() int {
	n := 0
	g.Nodes(func(nd Node) {
		if nd.Class.Useful() {
			n++
		}
	})
	return n
}

// Snapshot captures the graph's current shape — node/edge ID space,
// alive flags and adjacency list lengths — so a scheduler that mutates
// the graph (inserting move chains, removing edges) can roll every
// candidate-II attempt back with Rollback instead of deep-cloning the
// graph per candidate. Entities added after the snapshot must be the
// only ones whose adjacency grew beyond the recorded lengths, which
// holds for all graph mutations (AddNode/AddEdge/RemoveEdge/
// RemoveNode).
type Snapshot struct {
	nodes, edges   int
	aliveN, aliveE int
	nodeAlive      []bool
	edgeAlive      []bool
	outLen, inLen  []int32
}

// Snapshot records the current graph state for Rollback.
func (g *Graph) Snapshot() *Snapshot {
	s := &Snapshot{
		nodes:     len(g.nodes),
		edges:     len(g.edges),
		aliveN:    g.aliveN,
		aliveE:    g.aliveE,
		nodeAlive: append([]bool(nil), g.nodeAlive...),
		edgeAlive: append([]bool(nil), g.edgeAlive...),
		outLen:    make([]int32, len(g.nodes)),
		inLen:     make([]int32, len(g.nodes)),
	}
	for i := range g.nodes {
		s.outLen[i] = int32(len(g.out[i]))
		s.inLen[i] = int32(len(g.in[i]))
	}
	return s
}

// Rollback restores the graph to the snapshotted state: entities added
// since are dropped (their IDs will be reissued), removals since are
// undone, and adjacency lists are truncated to their recorded lengths.
// A rolled-back graph is indistinguishable from a fresh Clone of the
// snapshotted one, IDs included.
func (g *Graph) Rollback(s *Snapshot) {
	g.nodes = g.nodes[:s.nodes]
	g.nodeAlive = g.nodeAlive[:s.nodes]
	copy(g.nodeAlive, s.nodeAlive)
	g.edges = g.edges[:s.edges]
	g.edgeAlive = g.edgeAlive[:s.edges]
	copy(g.edgeAlive, s.edgeAlive)
	g.out = g.out[:s.nodes]
	g.in = g.in[:s.nodes]
	for i := 0; i < s.nodes; i++ {
		g.out[i] = g.out[i][:s.outLen[i]]
		g.in[i] = g.in[i][:s.inLen[i]]
	}
	g.aliveN = s.aliveN
	g.aliveE = s.aliveE
}

func (g *Graph) checkNode(id int) {
	if id < 0 || id >= len(g.nodes) || !g.nodeAlive[id] {
		panic(fmt.Sprintf("ddg %s: node %d is not live", g.name, id))
	}
}
