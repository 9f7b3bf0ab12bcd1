package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rawConfigs are machine configs as a coordinator may relay them:
// compact, indented, with HTML-sensitive bytes and line separators in
// strings, escapes, and non-object values.
var rawConfigs = []string{
	`{"name":"clustered-4","clusters":4,"units_per_cluster":{"add":1,"copy":1,"mem":1,"mul":1},"latencies":{"add":1,"copy":1,"div":8,"load":2,"move":1,"mul":3,"store":1}}`,
	"{\n  \"clusters\": 3,\n\t\"name\" : \"a b\"\r\n}",
	`{"name":"<r&d>","note":"line` + "\u2028" + `para` + "\u2029" + `"}`,
	`{"esc":"q\" b\\ \u00e9 \/","list":[1, 2.5e3 ,-0, true,false,null,{}]}`,
	` "just a string" `,
	`null`,
	`[ ]`,
}

// hostileLease is a fill-populated Lease whose strings are drawn from
// strs and whose units carry configs drawn from rawConfigs, some units
// sharing one config slice as a coordinator's units do.
func hostileLease(rng *rand.Rand, strs []string) Lease {
	var l Lease
	fill(rng, reflect.ValueOf(&l).Elem())
	pick := func() string { return strs[rng.Intn(len(strs))] }
	l.ID = pick()
	if rng.Intn(4) == 0 {
		l.Units = nil
	}
	shared := json.RawMessage(rawConfigs[rng.Intn(len(rawConfigs))])
	for i := range l.Units {
		u := &l.Units[i]
		u.ID, u.Hash, u.Loop, u.Scheduler = pick(), pick(), pick(), pick()
		switch rng.Intn(3) {
		case 0:
			u.Machine.Config = nil
		case 1:
			u.Machine.Config = shared
		default:
			u.Machine.Config = json.RawMessage(rawConfigs[rng.Intn(len(rawConfigs))])
		}
		u.Machine.Clusters *= rng.Intn(2)
		u.TimeoutMS *= rng.Intn(2)
		u.Options.MaxII *= rng.Intn(2)
		u.Options.LoadSlack = -u.Options.LoadSlack * rng.Intn(2)
	}
	l.TTLMS *= rng.Intn(2)
	l.PollMS *= rng.Intn(2)
	l.Remaining *= rng.Intn(2)
	return l
}

// TestAppendLeaseMatchesMarshal is AppendLease's byte-identity
// property: exactly json.Marshal(l), appended after whatever buf holds.
func TestAppendLeaseMatchesMarshal(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := hostileLease(rng, hostileStrings)
		want, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendLease([]byte("prefix"), &l)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("seed %d:\n got %s\nwant %s", seed, got, want)
		}
	}
	for _, l := range []Lease{{}, {PollMS: 500}, {Units: []WorkUnit{}}, {Units: []WorkUnit{{}}}} {
		want, _ := json.Marshal(&l)
		if got, err := AppendLease(nil, &l); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendLease(%+v) = %s, %v; want %s", l, got, err, want)
		}
	}
}

// TestAppendLeaseRefusesInvalidConfig: a config json.Marshal refuses is
// an error, and the buffer is returned as it was.
func TestAppendLeaseRefusesInvalidConfig(t *testing.T) {
	for _, cfg := range []string{`{`, `{"a":1} x`, `{"a":01}`, "\"\x01\"", `nul`} {
		l := Lease{ID: "l", Units: []WorkUnit{{ID: "u", Machine: MachineSpec{Config: json.RawMessage(cfg)}}}}
		if _, err := json.Marshal(&l); err == nil {
			t.Fatalf("json.Marshal accepted config %q", cfg)
		}
		got, err := AppendLease([]byte("keep"), &l)
		if err == nil || string(got) != "keep" {
			t.Errorf("AppendLease with config %q = %q, %v; want the buffer unchanged and an error", cfg, got, err)
		}
	}
}

// TestAppendWorkResultsMatchesMarshal is AppendWorkResults's
// byte-identity property, nil and empty result lists included.
func TestAppendWorkResultsMatchesMarshal(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := WorkResultsRequest{Protocol: hostileStrings[rng.Intn(len(hostileStrings))]}
		switch n := rng.Intn(5); n {
		case 0:
		case 1:
			r.Results = []UnitResult{}
		default:
			for range n {
				r.Results = append(r.Results, UnitResult{
					Unit:   hostileStrings[rng.Intn(len(hostileStrings))],
					Result: hostileResult(rng, hostileStrings),
				})
			}
		}
		want, werr := json.Marshal(&r)
		got, err := AppendWorkResults([]byte("prefix"), &r)
		if (err == nil) != (werr == nil) {
			t.Fatalf("seed %d: error %v, json.Marshal %v", seed, err, werr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("seed %d: refused body left %q in the buffer", seed, got)
			}
			continue
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("seed %d:\n got %s\nwant %s", seed, got, want)
		}
	}
	nan := WorkResultsRequest{Results: []UnitResult{{Result: JobResult{Metrics: &ScheduleMetrics{IPC: math.NaN()}}}}}
	if _, err := AppendWorkResults(nil, &nan); err == nil {
		t.Error("AppendWorkResults accepted a NaN IPC")
	}
}

// refDecodeWorkResults is the reference decode of a results body: the
// one the server made before the codec, json.Decoder with
// DisallowUnknownFields reading one value.
func refDecodeWorkResults(body []byte) (*WorkResultsRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	r := new(WorkResultsRequest)
	if err := dec.Decode(r); err != nil {
		return nil, err
	}
	return r, nil
}

// refDecodeLease is the reference decode of a lease: json.Unmarshal.
func refDecodeLease(body []byte) (*Lease, error) {
	l := new(Lease)
	if err := json.Unmarshal(body, l); err != nil {
		return nil, err
	}
	return l, nil
}

// fieldNames lists the JSON keys of the given struct types.
func fieldNames(types ...any) []string {
	var names []string
	for _, v := range types {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			names = append(names, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
	}
	return names
}

// TestDecodeWorkResults pins the strict decoder's edges against the
// reference: the inputs the old decoder ignored or accepted silently.
func TestDecodeWorkResults(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"protocol":"v1","results":[]}`, true},
		{`null`, true},
		{`null garbage`, true},
		{`{"results":null}`, true},
		{`{"results":[]} {"trailing":"value"}`, true},
		{`{"results":[{"unit":"a"}],"results":[{"result":{"ii":2}},null]}`, true},
		{`{"results":[{"unit":"a","result":{"stats":{"extra":{"anything":1}}}}]}`, true},
		{``, false},
		{`   `, false},
		{`[]`, false},
		{`"results"`, false},
		{`{"results":{}}`, false},
		{`{"results":[],"heartbeat":true}`, false},
		{`{"results":[{"unit":"a","late":true}]}`, false},
		{`{"results":[{"result":{"index":1,"summary":{"jobs":1}}}]}`, false},
		{`{"results":[{"result":{"stats":{"ii":1,"bogus":2}}}]}`, false},
		{`{"results":[{"result":{"metrics":{"ipc":"1"}}}]}`, false},
		{`{"results":[1,]}`, false},
	} {
		got, err := DecodeWorkResults([]byte(c.body))
		want, werr := refDecodeWorkResults([]byte(c.body))
		if (err == nil) != c.ok || (werr == nil) != c.ok {
			t.Errorf("%q: err %v, reference %v; want ok=%v", c.body, err, werr, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decoded %+v, reference %+v", c.body, got, want)
		}
	}
	// The one departure, documented in the API README: a case-folded
	// key is an unknown field, where encoding/json matched it.
	body := []byte(`{"RESULTS":[{"UNIT":"a"}]}`)
	if _, err := refDecodeWorkResults(body); err != nil {
		t.Fatalf("reference refused %s: %v", body, err)
	}
	if _, err := DecodeWorkResults(body); err == nil || err.Error() != `json: unknown field "RESULTS"` {
		t.Errorf("case-folded key: err %v, want json: unknown field \"RESULTS\"", err)
	}
}

// goldenBodies returns the compacted golden value stored under each key.
func goldenBodies(f interface{ Fatal(...any) }, keys ...string) [][]byte {
	data, err := os.ReadFile(filepath.Join("testdata", "wire_v1.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, k := range keys {
		var b bytes.Buffer
		if err := json.Compact(&b, doc[k]); err != nil {
			f.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// FuzzDecodeWorkResults holds the strict results-body decoder to its
// reference on arbitrary input: it must never panic, must accept
// exactly what the reference accepts, with the same value — except on
// inputs with a case-folded key, where the two differ by design — and
// what it accepts must re-encode to json.Marshal's bytes.
func FuzzDecodeWorkResults(f *testing.F) {
	for _, b := range goldenBodies(f, "work_results_request") {
		f.Add(b)
	}
	f.Add([]byte(`null x`))
	f.Add([]byte(`{"results":[{"unit":"a","result":{"ii":2}}],"results":[{"unit":"b"},{}]} tail`))
	f.Add([]byte(`{"results":[{"result":{"stats":{"extra":{"k":1,"k":null}},"metrics":null}}]}`))
	names := fieldNames(WorkResultsRequest{}, UnitResult{}, JobResult{}, Stats{}, ScheduleMetrics{})
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeWorkResults(body)
		want, werr := refDecodeWorkResults(body)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			if usesFoldedKey(body, names) {
				return
			}
			t.Fatalf("DecodeWorkResults(%q) = %+v, %v; reference %+v, %v", body, got, err, want, werr)
		}
		if err != nil {
			return
		}
		enc, eerr := AppendWorkResults(nil, got)
		ref, rerr := json.Marshal(got)
		if (eerr == nil) != (rerr == nil) || !bytes.Equal(enc, ref) {
			t.Fatalf("AppendWorkResults(%+v) = %s, %v; json.Marshal %s, %v", got, enc, eerr, ref, rerr)
		}
	})
}

// FuzzDecodeLease holds the lenient lease decoder to json.Unmarshal the
// same way, and AppendLease to json.Marshal on what it decodes.
func FuzzDecodeLease(f *testing.F) {
	for _, b := range goldenBodies(f, "lease", "empty_lease") {
		f.Add(b)
	}
	f.Add([]byte(`{"units":[{"id":"u","machine":{"config":{ "a" : "<&>" }},"x":[1]}],"units":[{},null],"future":{}}`))
	f.Add([]byte(`{"units":[{"machine":{"config":null,"clusters":2},"options":{"max_ii":9}}],"ttl_ms":1}`))
	names := fieldNames(Lease{}, WorkUnit{}, MachineSpec{}, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeLease(body)
		want, werr := refDecodeLease(body)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			if usesFoldedKey(body, names) {
				return
			}
			t.Fatalf("DecodeLease(%q) = %+v, %v; reference %+v, %v", body, got, err, want, werr)
		}
		if err != nil {
			return
		}
		enc, eerr := AppendLease(nil, got)
		ref, rerr := json.Marshal(got)
		if (eerr == nil) != (rerr == nil) || !bytes.Equal(enc, ref) {
			t.Fatalf("AppendLease(%+v) = %s, %v; json.Marshal %s, %v", got, enc, eerr, ref, rerr)
		}
	})
}

// ReadBody reads every body whole, whatever length it declares: the
// declared length presizes the one buffer, a missing one starts small,
// and a lying one neither truncates the body nor makes the reader
// allocate more than the 1 MiB cap up front.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB
	for _, declared := range []int64{int64(len(body)), -1, 0, 100, 1 << 40} {
		got, err := ReadBody(bytes.NewReader(body), declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, err %v; want the %d-byte body", declared, len(got), err, len(body))
		}
		if declared == 1<<40 && cap(got) >= 2*maxBodyPresize {
			t.Errorf("declared %d: buffer capacity %d, above the %d-byte presize cap", declared, cap(got), maxBodyPresize)
		}
	}
	// Presized, the read makes one buffer; of unknown length, it grows
	// one from 512 bytes, as io.ReadAll does.
	allocs := func(declared int64) float64 {
		return testing.AllocsPerRun(16, func() {
			if _, err := ReadBody(bytes.NewReader(body), declared); err != nil {
				t.Fatal(err)
			}
		})
	}
	if known, unknown := allocs(int64(len(body))), allocs(-1); known >= unknown {
		t.Errorf("ReadBody allocates %.0f times with the length declared, %.0f without: the presize saved nothing", known, unknown)
	}
}
