package loop

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

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
// Lines end at '\n'; a line's comment is cut before anything else, and
// white space is any Unicode space (unicode.IsSpace), so a trailing
// '\r' is dropped with the rest of the surrounding space. Tokens are
// separated by runs of white space, except that the "loop " and
// "mem " keywords must be followed by an ASCII space. An op's name is
// the text before its first '=', trimmed; an operand is the text
// between commas, trimmed, with each inner run of white space read as
// one ' '. A later header replaces an earlier one. A line of
// maxLineBytes (1 MiB) or more, counting a '\r' before its '\n',
// fails with an error that wraps bufio.ErrTooLong.
//
// ParseString reports the first error in this order: the first bad
// line, by line number (a line over the cap counts as bad there); a
// missing header; a duplicate op name; an operand, in op order, whose
// distance does not parse or whose name is unknown; an unknown name in
// a mem line, in line order; and last whatever Validate rejects.
//
// Format writes this representation; ParseString reads it back.

// Format renders the loop in the textual format. It writes into one
// buffer of the text's exact size; a loop whose flow dependences are
// not grouped by consumer, as ParseString lists them, first gets a
// grouped copy of its dependences.
func Format(l *Loop) string {
	if !flowGrouped(l.Deps) {
		deps := slices.Clone(l.Deps)
		slices.SortStableFunc(deps, func(a, b Dep) int { return cmp.Compare(flowRank(a), flowRank(b)) })
		l = &Loop{Name: l.Name, Trip: l.Trip, Ops: l.Ops, Deps: deps}
	}
	var sb strings.Builder
	sb.Grow(formatLen(l))
	var num [20]byte // one decimal int
	sb.WriteString("loop ")
	sb.WriteString(l.Name)
	sb.WriteString(" trip ")
	sb.Write(strconv.AppendInt(num[:0], int64(l.Trip), 10))
	sb.WriteByte('\n')
	next := 0 // the next flow dependence to render
	for _, op := range l.Ops {
		sb.WriteString(op.Name)
		sb.WriteString(" = ")
		sb.WriteString(op.Class.String())
		sep := " "
		for ; next < len(l.Deps); next++ {
			d := l.Deps[next]
			if d.Kind != Flow {
				continue
			}
			if d.To != op.ID {
				break
			}
			sb.WriteString(sep)
			sep = ", "
			sb.WriteString(l.Ops[d.From].Name)
			if d.Distance != 0 {
				sb.WriteByte('@')
				sb.Write(strconv.AppendInt(num[:0], int64(d.Distance), 10))
			}
		}
		sb.WriteByte('\n')
	}
	for _, d := range l.Deps {
		if d.Kind == Flow {
			continue
		}
		sb.WriteString("mem ")
		sb.WriteString(l.Ops[d.From].Name)
		sb.WriteString(" -> ")
		sb.WriteString(l.Ops[d.To].Name)
		if d.Distance != 0 {
			sb.WriteString(" @")
			sb.Write(strconv.AppendInt(num[:0], int64(d.Distance), 10))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// flowGrouped reports whether deps lists its flow dependences in
// consumer order, so each op's operands are consecutive among them.
func flowGrouped(deps []Dep) bool {
	last := ID(-1)
	for _, d := range deps {
		if d.Kind == Flow {
			if d.To < last {
				return false
			}
			last = d.To
		}
	}
	return true
}

// flowRank orders a dependence for Format: flow dependences by
// consumer, every other kind after them.
func flowRank(d Dep) int {
	if d.Kind == Flow {
		return int(d.To)
	}
	return math.MaxInt
}

// formatLen returns the length of Format(l) for a loop whose flow
// dependences are grouped by consumer.
func formatLen(l *Loop) int {
	n := len("loop ") + len(l.Name) + len(" trip ") + intLen(l.Trip) + len("\n")
	for _, op := range l.Ops {
		n += len(op.Name) + len(" = ") + len(op.Class.String()) + len("\n")
	}
	last := ID(-1)
	for _, d := range l.Deps {
		if d.Kind != Flow {
			n += len("mem ") + len(l.Ops[d.From].Name) + len(" -> ") + len(l.Ops[d.To].Name) + len("\n")
			if d.Distance != 0 {
				n += len(" @") + intLen(d.Distance)
			}
			continue
		}
		// An op's first operand follows " ", each later one ", ".
		n += len(", ") + len(l.Ops[d.From].Name)
		if d.To != last {
			n--
			last = d.To
		}
		if d.Distance != 0 {
			n += len("@") + intLen(d.Distance)
		}
	}
	return n
}

// intLen returns the length of v in decimal.
func intLen(v int) int {
	var num [20]byte
	return len(strconv.AppendInt(num[:0], int64(v), 10))
}

// maxLineBytes caps one line of the textual format; a longer line
// fails ParseString with an error that wraps bufio.ErrTooLong.
const maxLineBytes = 1 << 20

var errLineTooLong = fmt.Errorf("loop: %w", bufio.ErrTooLong)

// ParseString reads one loop in the textual format, in one pass over
// s. Names are substrings of s, and a loop of up to 32 ops, 32
// operands and 4 mem lines builds in at most four allocations before
// Validate's one.
func ParseString(s string) (*Loop, error) {
	type operand struct {
		ref string // "name" or "name@dist"
		to  ID
	}
	type pendingMem struct {
		from, to string
		dist     int
	}
	// Until the name table is complete the ops and their operand
	// references wait in these, on the stack for a typical loop.
	var (
		opBuf  [32]Op
		argBuf [32]operand
		memBuf [4]pendingMem
		ops    = opBuf[:0]
		args   = argBuf[:0]
		mems   = memBuf[:0]
		name   string
		trip   int
		f      [5]string // a line's leading fields
	)
	for lineNo := 1; s != ""; lineNo++ {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if len(line) >= maxLineBytes {
			return nil, errLineTooLong
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "loop "):
			if fields(line, f[:]) != 4 || f[2] != "trip" {
				return nil, lineError(lineNo, "want %q, got %q", "loop <name> trip <n>", line)
			}
			n, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, lineError(lineNo, "bad trip count %q", f[3])
			}
			name, trip = f[1], n
		case strings.HasPrefix(line, "mem "):
			n := fields(line[len("mem "):], f[:])
			if n < 3 || f[1] != "->" {
				return nil, lineError(lineNo, "want %q, got %q", "mem <from> -> <to> [@d]", line)
			}
			pm := pendingMem{from: f[0], to: f[2]}
			switch n {
			case 4:
				dist, ok := strings.CutPrefix(f[3], "@")
				d, err := strconv.Atoi(dist)
				if !ok || err != nil {
					return nil, lineError(lineNo, "bad distance %q", f[3])
				}
				pm.dist = d
			case 5:
				return nil, lineError(lineNo, "trailing tokens in %q", line)
			}
			mems = append(mems, pm)
		default:
			opName, rest, ok := strings.Cut(line, "=")
			if !ok {
				return nil, lineError(lineNo, "want %q, got %q", "<name> = <class> [operands]", line)
			}
			opName = strings.TrimSpace(opName)
			classTok, operands := cutField(rest)
			if opName == "" || classTok == "" {
				return nil, lineError(lineNo, "malformed operation %q", line)
			}
			class, err := machine.ParseOpClass(classTok)
			if err != nil {
				return nil, lineError(lineNo, "%v", err)
			}
			to := ID(len(ops))
			ops = append(ops, Op{ID: to, Class: class, Name: opName})
			// line is trimmed, so operands is empty or holds a field.
			for more := operands != ""; more; {
				var ref string
				ref, operands, more = strings.Cut(operands, ",")
				if ref = strings.TrimSpace(ref); ref == "" {
					return nil, lineError(lineNo, "empty operand in %q", line)
				}
				if strings.IndexFunc(ref, unicode.IsSpace) >= 0 {
					ref = strings.Join(strings.Fields(ref), " ")
				}
				args = append(args, operand{ref: ref, to: to})
			}
		}
	}
	if name == "" {
		return nil, fmt.Errorf("loop: missing %q header", "loop <name> trip <n>")
	}

	l := &Loop{Name: name, Trip: trip}
	if len(ops) > 0 {
		l.Ops = make([]Op, len(ops))
		copy(l.Ops, ops)
	}
	names := newNameTable(len(l.Ops))
	for i := range l.Ops {
		if !names.insert(l.Ops, ID(i)) {
			return nil, fmt.Errorf("loop %s: duplicate op name %q", l.Name, l.Ops[i].Name)
		}
	}
	if n := len(args) + len(mems); n > 0 {
		l.Deps = make([]Dep, 0, n)
	}
	for _, a := range args {
		ref, distStr, hasDist := strings.Cut(a.ref, "@")
		dist := 0
		if hasDist {
			d, err := strconv.Atoi(distStr)
			if err != nil {
				return nil, fmt.Errorf("loop %s: bad distance in %q", l.Name, a.ref)
			}
			dist = d
		}
		from, ok := names.find(l.Ops, ref)
		if !ok {
			return nil, fmt.Errorf("loop %s: unknown operation %q", l.Name, ref)
		}
		l.Deps = append(l.Deps, Dep{From: from, To: a.to, Kind: Flow, Distance: dist})
	}
	for _, pm := range mems {
		from, ok := names.find(l.Ops, pm.from)
		if !ok {
			return nil, fmt.Errorf("loop %s: unknown operation %q", l.Name, pm.from)
		}
		to, ok := names.find(l.Ops, pm.to)
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

// lineError reports a bad line.
func lineError(lineNo int, format string, args ...any) error {
	return fmt.Errorf("loop: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

// cutField returns the first field of s, as strings.Fields splits s,
// and the text after it.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// fields stores the leading fields of s, as strings.Fields splits s,
// in f, and returns how many it stored: len(f) when s has len(f) or
// more. The rest of f is left as it was.
func fields(s string, f []string) int {
	for n := range f {
		var field string
		if field, s = cutField(s); field == "" {
			return n
		}
		f[n] = field
	}
	return len(f)
}

// String renders the loop in the textual format.
func (l *Loop) String() string { return Format(l) }
