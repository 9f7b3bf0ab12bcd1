// Package loop defines the intermediate representation of innermost
// loops consumed by the modulo schedulers.
//
// A Loop is a list of typed operations plus a list of dependences.
// Flow dependences carry a register value from a producer to a
// consumer and have an iteration distance: distance 0 is a
// same-iteration use, distance d > 0 is a loop-carried use of the value
// produced d iterations earlier (a recurrence, when it closes a cycle).
// Memory dependences only order operations (store→load, store→store)
// and carry no value, so they are exempt from the clustered machine's
// communication constraints.
//
// The operand order of an operation is the order of its incoming flow
// dependences in Loop.Deps; the reference executor and the VLIW
// simulator both rely on that order, which makes loop semantics
// deterministic without a full expression language.
package loop

import (
	"fmt"

	"repro/internal/machine"
)

// ID names an operation within its loop; it is the operation's index
// in Loop.Ops.
type ID int

// Op is one operation of the loop body.
type Op struct {
	// ID is the operation's index in Loop.Ops.
	ID ID
	// Class determines the functional unit and latency.
	Class machine.OpClass
	// Name is the symbolic name used by the textual format. Names are
	// unique within a loop.
	Name string
}

// DepKind distinguishes value-carrying dependences from pure ordering
// constraints.
type DepKind int

const (
	// Flow is a true data dependence: To consumes the value produced
	// by From. Flow dependences are subject to the communication
	// constraints of the clustered machine.
	Flow DepKind = iota
	// MemOrder serialises two memory operations without moving a
	// value between clusters (e.g. a store followed by a load from a
	// possibly-aliasing address).
	MemOrder
)

// String returns "flow" or "mem".
func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case MemOrder:
		return "mem"
	default:
		return fmt.Sprintf("DepKind(%d)", int(k))
	}
}

// Dep is a dependence edge between two operations of the loop body.
type Dep struct {
	From, To ID
	Kind     DepKind
	// Distance is the iteration distance: the instance of To in
	// iteration i depends on the instance of From in iteration
	// i-Distance. Distance 0 is a same-iteration dependence.
	Distance int
}

// Loop is an innermost loop eligible for software pipelining.
type Loop struct {
	// Name identifies the loop in reports and corpora.
	Name string
	// Trip is the representative trip count used for dynamic cycle and
	// IPC accounting (the paper measures with an "iteration counter").
	Trip int
	// Ops is the loop body; Ops[i].ID == ID(i).
	Ops []Op
	// Deps lists all dependences. The relative order of flow
	// dependences sharing the same To defines that operation's operand
	// order.
	Deps []Dep
}

// NumOps returns the number of operations in the body.
func (l *Loop) NumOps() int { return len(l.Ops) }

// Clone returns a deep copy of the loop.
func (l *Loop) Clone() *Loop {
	c := &Loop{Name: l.Name, Trip: l.Trip}
	c.Ops = append([]Op(nil), l.Ops...)
	c.Deps = append([]Dep(nil), l.Deps...)
	return c
}

// Operands returns the producers of op's register operands, in operand
// order, together with their iteration distances.
func (l *Loop) Operands(op ID) []Dep {
	var out []Dep
	for _, d := range l.Deps {
		if d.To == op && d.Kind == Flow {
			out = append(out, d)
		}
	}
	return out
}

// Uses returns the flow dependences rooted at op, in Deps order.
func (l *Loop) Uses(op ID) []Dep {
	var out []Dep
	for _, d := range l.Deps {
		if d.From == op && d.Kind == Flow {
			out = append(out, d)
		}
	}
	return out
}

// ClassCount returns how many operations of each class the body holds.
func (l *Loop) ClassCount() [machine.NumOpClasses]int {
	var n [machine.NumOpClasses]int
	for _, op := range l.Ops {
		n[op.Class]++
	}
	return n
}

// Validate checks the structural invariants of the IR:
//
//   - ops are densely numbered and named uniquely,
//   - source loops contain no compiler-inserted copy/move operations,
//   - dependences reference valid operations with non-negative
//     distances,
//   - flow dependences originate at value-producing operations,
//   - the distance-0 dependence subgraph is acyclic (an iteration must
//     be executable in some order).
//
// It makes one allocation, which holds the name table and the cycle
// check's arrays.
func (l *Loop) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("loop: empty name")
	}
	if l.Trip < 1 {
		return fmt.Errorf("loop %s: trip count %d < 1", l.Name, l.Trip)
	}
	size := nameTableSize(len(l.Ops))
	scratch := make([]int32, size+3*len(l.Ops)+1+len(l.Deps))
	names := nameTable(scratch[:size])
	for i, op := range l.Ops {
		if op.ID != ID(i) {
			return fmt.Errorf("loop %s: op %d has ID %d", l.Name, i, op.ID)
		}
		if op.Class < 0 || op.Class >= machine.NumOpClasses {
			return fmt.Errorf("loop %s: op %s has invalid class", l.Name, op.Name)
		}
		if op.Class == machine.Copy || op.Class == machine.Move {
			return fmt.Errorf("loop %s: op %s: %v operations are compiler-inserted and may not appear in source loops", l.Name, op.Name, op.Class)
		}
		if op.Name == "" {
			return fmt.Errorf("loop %s: op %d has empty name", l.Name, i)
		}
		if !names.insert(l.Ops, op.ID) {
			return fmt.Errorf("loop %s: duplicate op name %q", l.Name, op.Name)
		}
	}
	for i, d := range l.Deps {
		if d.From < 0 || int(d.From) >= len(l.Ops) || d.To < 0 || int(d.To) >= len(l.Ops) {
			return fmt.Errorf("loop %s: dep %d references missing op", l.Name, i)
		}
		if d.Distance < 0 {
			return fmt.Errorf("loop %s: dep %d has negative distance", l.Name, i)
		}
		if d.From == d.To && d.Distance == 0 {
			return fmt.Errorf("loop %s: op %s depends on itself within one iteration", l.Name, l.Ops[d.From].Name)
		}
		switch d.Kind {
		case Flow:
			if !l.Ops[d.From].Class.Produces() {
				return fmt.Errorf("loop %s: flow dep from %s, which produces no value", l.Name, l.Ops[d.From].Name)
			}
		case MemOrder:
			if l.Ops[d.From].Class.FU() != machine.FUMem || l.Ops[d.To].Class.FU() != machine.FUMem {
				return fmt.Errorf("loop %s: mem dep %d must connect memory operations", l.Name, i)
			}
		default:
			return fmt.Errorf("loop %s: dep %d has invalid kind", l.Name, i)
		}
	}
	if op, ok := l.sameIterationCycle(scratch[size:]); ok {
		return fmt.Errorf("loop %s: distance-0 dependence cycle through %s", l.Name, l.Ops[op].Name)
	}
	return nil
}

// sameIterationCycle returns the first op, by ID, that lies on a
// distance-0 cycle or depends on one, and whether there is one. It runs Kahn's
// algorithm over the distance-0 edges in scratch, which holds
// 3*len(l.Ops)+1+len(l.Deps) zeroed int32s.
func (l *Loop) sameIterationCycle(scratch []int32) (ID, bool) {
	n := len(l.Ops)
	indeg := scratch[:n]
	// first[i] is where op i's successors start in adj; op i's
	// successors end where op i+1's start.
	first := scratch[n : 2*n+1]
	adj := scratch[2*n+1 : 2*n+1+len(l.Deps)]
	stack := scratch[2*n+1+len(l.Deps):][:n]
	for _, d := range l.Deps {
		if d.Distance == 0 {
			first[d.From+1]++
			indeg[d.To]++
		}
	}
	for i := 1; i <= n; i++ {
		first[i] += first[i-1]
	}
	// Fill adj in Deps order, with stack as each op's fill cursor.
	copy(stack, first[:n])
	for _, d := range l.Deps {
		if d.Distance == 0 {
			adj[stack[d.From]] = int32(d.To)
			stack[d.From]++
		}
	}
	stack = stack[:0]
	for i, deg := range indeg {
		if deg == 0 {
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range adj[first[v]:first[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				stack = append(stack, s)
			}
		}
	}
	for i, deg := range indeg {
		if deg > 0 {
			return ID(i), true
		}
	}
	return 0, false
}
