package loop

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// The textual loop format, one declaration per line:
//
//	loop <name> trip <n>
//	<name> = <class> [<operand>[@<distance>], ...]
//	mem <from> -> <to> [@<distance>]
//
// '#' starts a comment. Operands may reference operations defined later
// in the file, which is how recurrences are written:
//
//	loop dot trip 100
//	x   = load
//	y   = load
//	m   = mul x, y
//	acc = add m, acc@1   # accumulator recurrence
//	out = store acc
//
// Format writes this representation; Parse reads it back.

// Format renders the loop in the textual format.
func Format(l *Loop) string {
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

// maxLineBytes caps one line of the textual format; a longer line
// fails Parse with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// Parse reads one loop in the textual format.
func Parse(r io.Reader) (*Loop, error) {
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
		scanner = bufio.NewScanner(r)
		lineNo  int
	)
	// No initial buffer: the scanner grows one to fit the longest line,
	// up to the 1 MiB cap, so a short loop never pays for a large one.
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
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Loop, error) { return Parse(strings.NewReader(s)) }

// String renders the loop in the textual format.
func (l *Loop) String() string { return Format(l) }
