package loop

import (
	"bufio"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Parse must reject or accept arbitrary input without panicking.
func TestParseNeverPanics(t *testing.T) {
	prop := func(raw []byte) bool {
		// A recovered panic would fail the property via testing/quick's
		// panic propagation, so simply calling Parse is the check.
		_, _ = ParseString(string(raw))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The parser holds no large buffer up front, but its line cap is still
// 1 MiB: a long comment line parses, and a longer line fails with the
// scanner's token-too-long error rather than being truncated.
func TestParseLineLimits(t *testing.T) {
	base := Format(mustDot(t))
	long := "# " + strings.Repeat("x", 200<<10) + "\n"
	l, err := ParseString(long + base)
	if err != nil {
		t.Fatalf("loop after a 200 KiB comment line: %v", err)
	}
	if got := Format(l); got != base {
		t.Errorf("loop after a 200 KiB comment line = %q, want %q", got, base)
	}
	tooLong := "# " + strings.Repeat("x", 1<<20) + "\n"
	if _, err := ParseString(base + tooLong); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("loop with a line over 1 MiB: err = %v, want %v", err, bufio.ErrTooLong)
	}
}

// Structured garbage: mutate a valid loop's text and make sure the
// parser either accepts a still-valid loop or errors cleanly.
func TestParseMutatedText(t *testing.T) {
	base := Format(mustDot(t))
	rng := rand.New(rand.NewSource(21))
	mutations := []func(string) string{
		func(s string) string { return strings.ReplaceAll(s, "=", "") },
		func(s string) string { return strings.ReplaceAll(s, "load", "lod") },
		func(s string) string { return strings.ReplaceAll(s, "@1", "@-1") },
		func(s string) string { return strings.ReplaceAll(s, "trip 100", "trip 0") },
		func(s string) string { return s + "\nmem nosuch -> out\n" },
		func(s string) string { return strings.Repeat(s, 2) }, // duplicate names
		func(s string) string {
			i := rng.Intn(len(s))
			return s[:i] + "#" + s[i:]
		},
	}
	for i, mutate := range mutations {
		text := mutate(base)
		l, err := ParseString(text)
		if err == nil {
			if verr := l.Validate(); verr != nil {
				t.Errorf("mutation %d: parser accepted an invalid loop: %v", i, verr)
			}
		}
	}
}

// Every corpus-style random loop must round-trip exactly, and render
// as referenceFormat renders it: the builder's loops list a carried
// operand after later ops' operands, which Format must regroup, and
// the parsed ones list operands grouped, which Format renders as they
// stand, into a buffer of exactly formatLen bytes.
func TestFormatParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		l := randomValidLoop(rng)
		text := Format(l)
		if want := referenceFormat(l); text != want {
			t.Fatalf("trial %d: Format differs from referenceFormat:\n%s\n%s", i, text, want)
		}
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, text)
		}
		if Format(back) != text {
			t.Fatalf("trial %d: round trip diverged:\n%s\n%s", i, text, Format(back))
		}
		if n := formatLen(back); n != len(text) {
			t.Fatalf("trial %d: formatLen = %d, want %d", i, n, len(text))
		}
	}
}

// A loop whose operands and mem dependences are interleaved out of
// consumer order renders with each op's operands in Deps order and
// the mem lines last, in Deps order.
func TestFormatRegroupsOperands(t *testing.T) {
	b := NewBuilder("mix")
	x := b.Load("x")
	s := b.Store("s", x)
	y := b.Load("y")
	b.Mem(s, y, 1)
	a := b.Add("a", y)
	b.Carried(a, a, 2)
	b.Mem(y, s, 1)
	b.Flow(y, s, 0)
	l := b.MustBuild()
	const want = "loop mix trip 100\nx = load\ns = store x, y\ny = load\na = add y, a@2\nmem s -> y @1\nmem y -> s @1\n"
	if got := Format(l); got != want || got != referenceFormat(l) {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func mustDot(t *testing.T) *Loop {
	t.Helper()
	b := NewBuilder("dot")
	x := b.Load("x")
	y := b.Load("y")
	m := b.Mul("m", x, y)
	acc := b.Add("acc", m)
	b.Carried(acc, acc, 1)
	b.Store("out", acc)
	return b.MustBuild()
}

func randomValidLoop(rng *rand.Rand) *Loop {
	b := NewBuilder("r")
	b.Trip(1 + rng.Intn(50))
	var prod []ID
	var loads []ID
	n := 2 + rng.Intn(10)
	for i := 0; i < n; i++ {
		switch {
		case len(prod) == 0 || rng.Intn(3) == 0:
			id := b.Load(name(i))
			prod = append(prod, id)
			loads = append(loads, id)
		case rng.Intn(4) == 0:
			b.Store(name(i), prod[rng.Intn(len(prod))])
		default:
			id := b.Add(name(i), prod[rng.Intn(len(prod))])
			prod = append(prod, id)
		}
	}
	if rng.Intn(2) == 0 {
		src := prod[rng.Intn(len(prod))]
		dst := prod[rng.Intn(len(prod))]
		b.Carried(src, dst, 1+rng.Intn(3))
	}
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}

func name(i int) string { return "n" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
