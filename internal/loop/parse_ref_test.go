package loop

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// referenceParse is the line-scanner parser ParseString replaced, kept
// as the oracle FuzzParse compares it against: the two must accept the
// same texts, build deeply equal loops, and fail with identical errors.
// It validates with referenceValidate, the map- and per-op-slice-based
// Validate of the same era, so the oracle covers Validate too.
func referenceParse(s string) (*Loop, error) {
	type pendingOp struct {
		name  string
		class machine.OpClass
		args  []string // "name" or "name@dist"
	}
	type pendingMem struct {
		from, to string
		dist     int
	}
	var (
		l       = &Loop{Trip: 100}
		ops     []pendingOp
		mems    []pendingMem
		scanner = bufio.NewScanner(strings.NewReader(s))
		lineNo  int
	)
	scanner.Buffer(nil, maxLineBytes)
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(formatStr string, args ...any) (*Loop, error) {
			return nil, fmt.Errorf("loop: line %d: %s", lineNo, fmt.Sprintf(formatStr, args...))
		}
		switch {
		case strings.HasPrefix(line, "loop "):
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[2] != "trip" {
				return fail("want %q, got %q", "loop <name> trip <n>", line)
			}
			n, err := strconv.Atoi(fields[3])
			if err != nil {
				return fail("bad trip count %q", fields[3])
			}
			l.Name, l.Trip = fields[1], n
		case strings.HasPrefix(line, "mem "):
			fields := strings.Fields(strings.TrimPrefix(line, "mem "))
			if len(fields) < 3 || fields[1] != "->" {
				return fail("want %q, got %q", "mem <from> -> <to> [@d]", line)
			}
			pm := pendingMem{from: fields[0], to: fields[2]}
			if len(fields) == 4 {
				if !strings.HasPrefix(fields[3], "@") {
					return fail("bad distance %q", fields[3])
				}
				d, err := strconv.Atoi(fields[3][1:])
				if err != nil {
					return fail("bad distance %q", fields[3])
				}
				pm.dist = d
			} else if len(fields) > 4 {
				return fail("trailing tokens in %q", line)
			}
			mems = append(mems, pm)
		default:
			name, rest, ok := strings.Cut(line, "=")
			if !ok {
				return fail("want %q, got %q", "<name> = <class> [operands]", line)
			}
			name = strings.TrimSpace(name)
			fields := strings.Fields(rest)
			if name == "" || len(fields) == 0 {
				return fail("malformed operation %q", line)
			}
			class, err := machine.ParseOpClass(fields[0])
			if err != nil {
				return fail("%v", err)
			}
			var args []string
			if len(fields) > 1 {
				for _, a := range strings.Split(strings.Join(fields[1:], " "), ",") {
					a = strings.TrimSpace(a)
					if a == "" {
						return fail("empty operand in %q", line)
					}
					args = append(args, a)
				}
			}
			ops = append(ops, pendingOp{name: name, class: class, args: args})
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("loop: %w", err)
	}
	if l.Name == "" {
		return nil, fmt.Errorf("loop: missing %q header", "loop <name> trip <n>")
	}

	byName := make(map[string]ID, len(ops))
	for i, po := range ops {
		if _, dup := byName[po.name]; dup {
			return nil, fmt.Errorf("loop %s: duplicate op name %q", l.Name, po.name)
		}
		byName[po.name] = ID(i)
		l.Ops = append(l.Ops, Op{ID: ID(i), Class: po.class, Name: po.name})
	}
	resolve := func(ref string) (ID, int, error) {
		name, distStr, hasDist := strings.Cut(ref, "@")
		dist := 0
		if hasDist {
			d, err := strconv.Atoi(distStr)
			if err != nil {
				return 0, 0, fmt.Errorf("loop %s: bad distance in %q", l.Name, ref)
			}
			dist = d
		}
		id, ok := byName[name]
		if !ok {
			return 0, 0, fmt.Errorf("loop %s: unknown operation %q", l.Name, name)
		}
		return id, dist, nil
	}
	for i, po := range ops {
		for _, a := range po.args {
			src, dist, err := resolve(a)
			if err != nil {
				return nil, err
			}
			l.Deps = append(l.Deps, Dep{From: src, To: ID(i), Kind: Flow, Distance: dist})
		}
	}
	for _, pm := range mems {
		from, ok := byName[pm.from]
		if !ok {
			return nil, fmt.Errorf("loop %s: unknown operation %q", l.Name, pm.from)
		}
		to, ok := byName[pm.to]
		if !ok {
			return nil, fmt.Errorf("loop %s: unknown operation %q", l.Name, pm.to)
		}
		l.Deps = append(l.Deps, Dep{From: from, To: to, Kind: MemOrder, Distance: pm.dist})
	}
	if err := referenceValidate(l); err != nil {
		return nil, err
	}
	return l, nil
}

// referenceFormat is the Format of the same era, which grouped each
// op's operands in a per-call table: Format must render every loop
// byte-identically.
func referenceFormat(l *Loop) string {
	var sb strings.Builder
	sb.WriteString("loop ")
	sb.WriteString(l.Name)
	sb.WriteString(" trip ")
	sb.WriteString(strconv.Itoa(l.Trip))
	sb.WriteByte('\n')
	operands := make([][]Dep, len(l.Ops))
	var mems []Dep
	for _, d := range l.Deps {
		if d.Kind == Flow {
			operands[d.To] = append(operands[d.To], d)
		} else {
			mems = append(mems, d)
		}
	}
	for _, op := range l.Ops {
		sb.WriteString(op.Name)
		sb.WriteString(" = ")
		sb.WriteString(op.Class.String())
		for i, d := range operands[op.ID] {
			if i == 0 {
				sb.WriteByte(' ')
			} else {
				sb.WriteString(", ")
			}
			sb.WriteString(l.Ops[d.From].Name)
			if d.Distance != 0 {
				sb.WriteByte('@')
				sb.WriteString(strconv.Itoa(d.Distance))
			}
		}
		sb.WriteByte('\n')
	}
	for _, d := range mems {
		sb.WriteString("mem ")
		sb.WriteString(l.Ops[d.From].Name)
		sb.WriteString(" -> ")
		sb.WriteString(l.Ops[d.To].Name)
		if d.Distance != 0 {
			sb.WriteString(" @")
			sb.WriteString(strconv.Itoa(d.Distance))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// referenceValidate is Validate as it stood beside referenceParse: a
// name map and one adjacency slice per op.
func referenceValidate(l *Loop) error {
	if l.Name == "" {
		return fmt.Errorf("loop: empty name")
	}
	if l.Trip < 1 {
		return fmt.Errorf("loop %s: trip count %d < 1", l.Name, l.Trip)
	}
	names := make(map[string]bool, len(l.Ops))
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
		if names[op.Name] {
			return fmt.Errorf("loop %s: duplicate op name %q", l.Name, op.Name)
		}
		names[op.Name] = true
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
	adj := make([][]ID, len(l.Ops))
	indeg := make([]int, len(l.Ops))
	for _, d := range l.Deps {
		if d.Distance == 0 {
			adj[d.From] = append(adj[d.From], d.To)
			indeg[d.To]++
		}
	}
	queue := make([]ID, 0, len(l.Ops))
	for i := range l.Ops {
		if indeg[i] == 0 {
			queue = append(queue, ID(i))
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, s := range adj[n] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	for i := range l.Ops {
		if indeg[i] > 0 {
			return fmt.Errorf("loop %s: distance-0 dependence cycle through %s", l.Name, l.Ops[i].Name)
		}
	}
	return nil
}
