package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// hostileStrings exercise every branch of encoding/json's string
// escaping: HTML-sensitive bytes, control characters, the JavaScript
// line separators, invalid and truncated UTF-8, encoded surrogates and
// a literal U+FFFD.
var hostileStrings = []string{
	"",
	"plain",
	`<script>&amp;</script>`,
	"quote \" backslash \\ slash /",
	"\b\f\n\r\t\x00\x01\x1f\x7f",
	"line\u2028para\u2029end",
	"\xff\xfe invalid",
	"trunc\xe2\x82",
	"\xed\xa0\x80 surrogate half",
	"\ufffd literal replacement",
	"héllo wörld 日本 😀",
	"t=0 c=0 mem x\nt=0 c=1 mem y\n",
}

// validUTF8Strings are the hostile strings that survive a JSON round
// trip unchanged (encoding/json replaces invalid UTF-8 by U+FFFD).
func validUTF8Strings() []string {
	var out []string
	for _, s := range hostileStrings {
		if utf8.ValidString(s) {
			out = append(out, s)
		}
	}
	return out
}

// specialFloats cover both float formats and the cutoffs between them.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.633986928104575, 0.1, 1e-6, 9.99e-7,
	-1e-7, 1e20, 1e21, -1e21, 123456789012345678, 5e-324, math.MaxFloat64,
	math.SmallestNonzeroFloat64 * 3, 1e-9, 2.5e-10,
}

// hostileResult is a fill-populated JobResult whose strings and Extra
// keys are drawn from strs and whose IPC from specialFloats.
func hostileResult(rng *rand.Rand, strs []string) JobResult {
	var r JobResult
	fill(rng, reflect.ValueOf(&r).Elem())
	pick := func() string { return strs[rng.Intn(len(strs))] }
	r.Job, r.Error, r.ErrorCode, r.Schedule = pick(), pick(), ErrorCode(pick()), pick()
	if rng.Intn(4) == 0 {
		r.Stats = nil
	} else {
		extra := map[string]int{}
		for range rng.Intn(4) {
			extra[pick()] = rng.Intn(2000) - 1000
		}
		if len(extra) == 0 && rng.Intn(2) == 0 {
			extra = nil
		}
		r.Stats.Extra = extra
		r.Stats.OptimalII *= rng.Intn(2)
	}
	if rng.Intn(4) == 0 {
		r.Metrics = nil
	} else {
		r.Metrics.IPC = specialFloats[rng.Intn(len(specialFloats))]
		r.Metrics.Cycles = -r.Metrics.Cycles * int64(rng.Intn(2))
	}
	r.Index = int(rng.Int63()) - int(rng.Int63())
	r.MII *= rng.Intn(2)
	r.II *= rng.Intn(2)
	return r
}

func marshalLine(t *testing.T, r *JobResult) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// TestAppendResultLineMatchesMarshal is the encoder's byte-identity
// property: AppendResultLine writes exactly json.Marshal(r)+"\n", and
// appends after whatever dst already holds.
func TestAppendResultLineMatchesMarshal(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := hostileResult(rng, hostileStrings)
		want := marshalLine(t, &r)
		got, err := AppendResultLine([]byte("prefix"), &r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("seed %d: AppendResultLine differs from json.Marshal:\n got %q\nwant %q", seed, got, want)
		}
	}
	for _, r := range []JobResult{{}, {Stats: &Stats{Extra: map[string]int{}}}, {Metrics: &ScheduleMetrics{}}} {
		if got, _ := AppendResultLine(nil, &r); !bytes.Equal(got, marshalLine(t, &r)) {
			t.Errorf("AppendResultLine(%+v) = %q, want %q", r, got, marshalLine(t, &r))
		}
	}
}

// TestResultLineRoundTrip: decoding an encoded line gives back the
// record it was encoded from.
func TestResultLineRoundTrip(t *testing.T) {
	strs := validUTF8Strings()
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := hostileResult(rng, strs)
		if r.Stats != nil && len(r.Stats.Extra) == 0 {
			r.Stats.Extra = nil // an empty map is omitted, so it decodes as nil
		}
		line, err := AppendResultLine(nil, &r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, sum, err := DecodeStreamLine(line)
		if err != nil || sum != nil {
			t.Fatalf("seed %d: DecodeStreamLine(%q) = %v, %v", seed, line, sum, err)
		}
		if !reflect.DeepEqual(*got, r) {
			t.Fatalf("seed %d: round trip changed the record:\n got %+v\nwant %+v\nline %q", seed, *got, r, line)
		}
	}
}

// TestAppendResultLineRefusesNonFinite: like json.Marshal, the encoder
// refuses an IPC that JSON cannot represent, with the same error, and
// leaves dst as it was.
func TestAppendResultLineRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := JobResult{Job: "x", Metrics: &ScheduleMetrics{IPC: f}}
		_, wantErr := json.Marshal(r)
		if wantErr == nil {
			t.Fatalf("json.Marshal accepted IPC %v", f)
		}
		got, err := AppendResultLine([]byte("keep"), &r)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Errorf("IPC %v: error %v, want %v", f, err, wantErr)
		}
		if string(got) != "keep" {
			t.Errorf("IPC %v: dst became %q on error", f, got)
		}
	}
}

// refLine is the reference semantics of DecodeStreamLine: one
// json.Unmarshal into a result with an optional summary.
type refLine struct {
	JobResult
	Summary *Summary `json:"summary"`
}

func refDecode(line []byte) (*JobResult, *Summary, error) {
	var v refLine
	if err := json.Unmarshal(line, &v); err != nil {
		return nil, nil, err
	}
	if v.Summary != nil {
		return nil, v.Summary, nil
	}
	return &v.JobResult, nil, nil
}

// streamLineCases pin DecodeStreamLine on the cases its doc comment
// names; TestDecodeStreamLine checks each against the reference decode.
var streamLineCases = []struct {
	name, line string
	ok         bool
}{
	{"result", `{"index":3,"job":"dot/c4/dms","mii":2,"ii":2}`, true},
	{"summary", `{"summary":{"jobs":7,"errors":1,"cached":2}}`, true},
	{"unknown fields of every type", `{"a":{"b":[1,{"c":null}]},"index":1,"n":-1.5e3,"s":"x\"y","t":true,"f":false,"z":null,"e":[],"o":{}}`, true},
	{"duplicate key: last wins", `{"index":1,"index":2,"job":"a","job":"b"}`, true},
	{"later summary null makes a result", `{"summary":{"jobs":1},"index":4,"summary":null}`, true},
	{"duplicate summaries merge", `{"summary":{"jobs":1},"summary":{"errors":2}}`, true},
	{"duplicate stats merge", `{"stats":{"mii":1,"extra":{"a":1}},"stats":{"ii":2,"extra":{"b":2}}}`, true},
	{"null leaves a field alone", `{"job":"a","job":null,"index":null,"cached":null,"stats":{"extra":null},"metrics":null}`, true},
	{"null map value stores zero", `{"stats":{"extra":{"k":null}}}`, true},
	{"empty objects allocate", `{"stats":{"extra":{}},"metrics":{},"summary":{}}`, true},
	{"escaped keys and values", `{"in\u0064ex":5,"job":"aé😀\ud800x\ud83d\ude00\udc00\n\/"}`, true},
	{"invalid UTF-8 becomes U+FFFD", "{\"job\":\"a\xffb\",\"stats\":{\"extra\":{\"k\xfe\":1}}}", true},
	{"top-level null", `null`, true},
	{"surrounding whitespace", " \t{\"index\":1}\r\n ", true},
	{"extreme ints", `{"index":-9223372036854775808,"metrics":{"cycles":9223372036854775807}}`, true},
	{"ipc exponent", `{"metrics":{"ipc":1.5E-7}}`, true},
	{"int overflow", `{"index":9223372036854775808}`, false},
	{"fraction into int", `{"index":1.0}`, false},
	{"exponent into int", `{"index":1e2}`, false},
	{"string into int", `{"index":"1"}`, false},
	{"number into string", `{"job":1}`, false},
	{"array into stats", `{"stats":[]}`, false},
	{"string into summary", `{"summary":"x"}`, false},
	{"bool from number", `{"cached":1}`, false},
	{"float overflow", `{"metrics":{"ipc":1e400}}`, false},
	{"trailing garbage", `{"index":1} x`, false},
	{"two values", `{} {}`, false},
	{"not an object", `[1,2]`, false},
	{"empty", ``, false},
	{"truncated", `{"index":1`, false},
	{"bad escape", `{"job":"\x"}`, false},
	{"raw control character", "{\"job\":\"a\tb\"}", false},
	{"leading zero", `{"index":01}`, false},
	{"bare minus", `{"index":-}`, false},
	{"missing colon", `{"index" 1}`, false},
	{"trailing comma", `{"index":1,}`, false},
	{"bad literal", `{"cached":tru}`, false},
	{"bad unknown value", `{"x":[1,]}`, false},
	{"unterminated unknown", `{"x":{"y":1}`, false},
	{"nesting at the depth limit", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"nesting past the depth limit", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
}

// checkStreamLine decodes line with DecodeStreamLine and with the
// reference, and requires the same acceptance (ok) and the same value.
func checkStreamLine(t *testing.T, line string, ok bool) {
	t.Helper()
	rec, sum, err := DecodeStreamLine([]byte(line))
	wantRec, wantSum, wantErr := refDecode([]byte(line))
	if (wantErr == nil) != ok {
		t.Fatalf("case expectation is wrong: reference error %v", wantErr)
	}
	if (err == nil) != ok {
		t.Fatalf("DecodeStreamLine(%q) error = %v, want ok=%v", line, err, ok)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "api: bad stream line: ") {
			t.Errorf("error %q lacks the api prefix", err)
		}
		return
	}
	if (rec == nil) == (sum == nil) {
		t.Fatalf("exactly one of result and summary must be set: %v %v", rec, sum)
	}
	if !reflect.DeepEqual(rec, wantRec) || !reflect.DeepEqual(sum, wantSum) {
		t.Errorf("decoded %+v %+v, reference %+v %+v", rec, sum, wantRec, wantSum)
	}
}

// TestDecodeStreamLineExactKeys documents the one departure from
// encoding/json: a case-folded key is an unknown field, not a match.
func TestDecodeStreamLineExactKeys(t *testing.T) {
	rec, sum, err := DecodeStreamLine([]byte(`{"INDEX":"not an int","Summary":{"jobs":1}}`))
	if err != nil || sum != nil || !reflect.DeepEqual(*rec, JobResult{}) {
		t.Errorf("case-folded keys were matched: %+v %+v %v", rec, sum, err)
	}
}

// lineFieldNames lists every key DecodeStreamLine matches.
func lineFieldNames() []string {
	return append([]string{"summary"}, fieldNames(JobResult{}, Stats{}, ScheduleMetrics{}, Summary{})...)
}

// usesFoldedKey reports whether some object key of line (valid JSON)
// matches a field name only case-insensitively — the inputs on which
// DecodeStreamLine departs from encoding/json by design.
func usesFoldedKey(line []byte, names []string) bool {
	type frame struct{ obj, wantKey bool }
	var stack []frame
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].obj {
			stack[n-1].wantKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case json.Delim:
			switch tok {
			case '{', '[':
				stack = append(stack, frame{obj: tok == '{', wantKey: tok == '{'})
			default:
				stack = stack[:len(stack)-1]
				valueDone()
			}
		case string:
			if n := len(stack); n > 0 && stack[n-1].obj && stack[n-1].wantKey {
				for _, name := range names {
					if tok != name && strings.EqualFold(tok, name) {
						return true
					}
				}
				stack[n-1].wantKey = false
				continue
			}
			valueDone()
		default:
			valueDone()
		}
	}
}

// goldenStreamLines returns the result and summary lines pinned in the
// wire golden, compacted to their stream form.
func goldenStreamLines(f interface{ Fatal(...any) }) [][]byte {
	return goldenBodies(f, "job_result", "error_result", "summary_line")
}

// FuzzDecodeStreamLine checks the one-pass decoder against the
// reference decode on arbitrary input: it must never panic, and it
// must accept exactly what the reference accepts, with the same value
// — except on inputs with a case-folded key, where the two differ by
// design.
func FuzzDecodeStreamLine(f *testing.F) {
	for _, line := range goldenStreamLines(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"summary":{"jobs":1},"index":4,"summary":null,"x":[{"y":"é"}]}`))
	names := lineFieldNames()
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, sum, err := DecodeStreamLine(line)
		wantRec, wantSum, wantErr := refDecode(line)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(rec, wantRec) || !reflect.DeepEqual(sum, wantSum) {
			if usesFoldedKey(line, names) {
				return
			}
			t.Fatalf("DecodeStreamLine(%q) = %+v, %+v, %v; reference %+v, %+v, %v",
				line, rec, sum, err, wantRec, wantSum, wantErr)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "api: bad stream line: ") {
			t.Fatalf("error %q lacks the api prefix", err)
		}
	})
}
