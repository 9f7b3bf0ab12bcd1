package loop

// Fuzz harness for the text-format parser. The parser fronts the
// compile service (internal/server feeds client-supplied loop files
// straight into ParseString), so it must never panic on arbitrary
// input: every byte stream either parses into a loop that passes
// Validate or is rejected with an error. It must also agree with
// referenceParse, the parser it replaced: both accept the same texts,
// build deeply equal loops (nil and empty slices told apart) and fail
// with identical error texts. Accepted loops must additionally
// round-trip — the canonical re-serialization (Format) re-parses to a
// fixed point — which is the property the content-addressed cache key
// relies on.
//
// Run locally with:
//
//	go test -fuzz FuzzParse -fuzztime 30s ./internal/loop
//
// CI runs the same target for a short fixed duration on every push.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	// The golden corpus seeds the interesting grammar: recurrences,
	// memory dependences, comments, multi-operand ops.
	entries, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	// Hand-picked edge cases: missing headers, bad distances, self
	// dependences, forward references, duplicate names, comment-only
	// files, oversized lines, weird operand punctuation.
	for _, seed := range []string{
		"",
		"# nothing but comments\n\n",
		"loop x trip 1\n",
		"loop x trip 1\na = load\n",
		"loop x trip -3\na = load\n",
		"loop x trip 99999999999999999999\na = load\n",
		"loop x trip 1\na = add a@1\nb = store a\n",
		"loop x trip 1\na = add a\n",
		"loop x trip 1\na = load\nb = load\nmem a -> b @2\n",
		"loop x trip 1\na = load\nmem a -> a\n",
		"loop x trip 1\na = mul b@0, b@-1\nb = load\n",
		"loop x trip 1\na = load\na = load\n",
		"loop x trip 1\n = load\n",
		"loop x trip 1\na = nosuchclass\n",
		"loop x trip 1\na = load ,\n",
		"loop x trip 1\na = copy\n",
		"mem a -> b\nloop x trip 1\n",
		"loop x trip 1\na = load\nb = add a@\n",
		"loop x trip 1\na@1 = load\nb = mul a@1\n",
		strings.Repeat("a", 1<<12),
		// Line endings, Unicode white space and odd bytes: the
		// parsers must split tokens and lines identically.
		"loop x trip 1\r\na = load\r\nb = add a, a@1\r\n",
		"loop x trip 1\na\t=\tload\nb = add\ta ,\tb@1\n",
		"loop\tx trip 1\na = load\n",
		"loop x trip 1\na\u00a0=\u00a0load\nb =\u0085add\u2003a\n",
		"loop x trip 1\na = load\nb = add\u2003a\u00a0,\u0085a@1\n",
		"loop x trip 1\n\xff = load\nb = add \xff, \xc2\n",
		"loop x\x00 trip 1\na = load\x00\n",
		"loop x trip 1\na = load ,\n",
		"loop x trip 1\nb = load\nc = load\na = add b,,c\n",
		"loop x trip 1\nx y = load\nb = add x  y, x\ty\n",
		"loop x trip 1\n# " + strings.Repeat("x", 1<<20) + "\nbad line\n",
		"loop x trip 1\na = add nosuch\na = load\n",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseString(src) // must never panic, whatever src is
		ref, refErr := referenceParse(src)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("ParseString and referenceParse disagree:\nerr:       %v\nreference: %v\ninput: %q", err, refErr, src)
		}
		if err != nil {
			return // rejected input: the only acceptable failure mode
		}
		if !reflect.DeepEqual(l, ref) {
			t.Fatalf("ParseString and referenceParse build different loops:\ngot:       %#v\nreference: %#v\ninput: %q", l, ref, src)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("Parse accepted a loop that fails Validate: %v\ninput: %q", err, src)
		}
		text := Format(l)
		l2, err := ParseString(text)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ninput: %q\ncanonical: %q", err, src, text)
		}
		if again := Format(l2); again != text {
			t.Fatalf("canonical form is not a fixed point:\nfirst:  %q\nsecond: %q", text, again)
		}
	})
}
