package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// wireTypes lists every type of the v1 contract; the round-trip and
// tolerance properties run over all of them, so adding a type to the
// package without adding it here is the only way to dodge the tests —
// keep it in sync.
func wireTypes() []any {
	return []any{
		CompileRequest{},
		MachineSpec{},
		Options{},
		Job{},
		JobResult{},
		Stats{},
		ScheduleMetrics{},
		Summary{},
		Error{},
		ErrorResponse{},
		SchedulerInfo{},
		CacheMetrics{},
		QueueMetrics{},
		DispatchMetrics{},
		WorkerMetrics{},
		DurabilityMetrics{},
		ServerMetrics{},
		Health{},
		LeaseRequest{},
		WorkUnit{},
		Lease{},
		UnitResult{},
		WorkResultsRequest{},
		WorkResultsResponse{},
	}
}

// fill populates v (a pointer to struct) with deterministic
// pseudorandom values, recursing through nested structs, slices, maps
// and pointers, so the round-trip property runs over fully populated
// values rather than zero ones.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(rng, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(rng, v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
			v.Set(reflect.ValueOf(json.RawMessage(fmt.Sprintf(`{"n":%d}`, rng.Intn(1000)))))
			return
		}
		n := 1 + rng.Intn(3)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(rng, k)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(rng, val)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.String:
		// Includes ErrorCode: any string value must survive the trip.
		v.SetString(fmt.Sprintf("s%d", rng.Intn(1_000_000)))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63n(1 << 40))
	case reflect.Uint, reflect.Uint64:
		v.SetUint(uint64(rng.Int63n(1 << 40)))
	case reflect.Float64:
		// Any float64 round-trips through encoding/json exactly
		// (shortest decimal form re-parses to the same bits).
		v.SetFloat(rng.Float64() * float64(rng.Intn(1000)))
	default:
		panic(fmt.Sprintf("fill: unhandled kind %s in wire type", v.Kind()))
	}
}

// TestRoundTripFixedPoint is the encode→decode→encode property: for
// every wire type and many pseudorandom populated values, marshaling,
// unmarshaling into a fresh value and marshaling again yields
// byte-identical JSON. A field that silently drops or renames data
// (bad tag, unexported field, lossy custom marshaler) breaks the
// fixed point.
func TestRoundTripFixedPoint(t *testing.T) {
	for _, proto := range wireTypes() {
		typ := reflect.TypeOf(proto)
		t.Run(typ.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 100; seed++ {
				rng := rand.New(rand.NewSource(seed))
				val := reflect.New(typ)
				fill(rng, val.Elem())
				first, err := json.Marshal(val.Interface())
				if err != nil {
					t.Fatalf("seed %d: marshal: %v", seed, err)
				}
				back := reflect.New(typ)
				if err := json.Unmarshal(first, back.Interface()); err != nil {
					t.Fatalf("seed %d: unmarshal: %v", seed, err)
				}
				second, err := json.Marshal(back.Interface())
				if err != nil {
					t.Fatalf("seed %d: re-marshal: %v", seed, err)
				}
				if !bytes.Equal(first, second) {
					t.Fatalf("seed %d: not a fixed point:\n first %s\nsecond %s", seed, first, second)
				}
			}
		})
	}
}

// TestUnknownFieldTolerance pins forward compatibility: a v1 client
// must decode payloads from a newer server that added fields. The
// injection is at the top level of each type — and since every nested
// object's type is itself in wireTypes, each nesting level is covered
// as the top level of its own subtest. (Requests are the one strict
// direction — the server rejects unknown request fields — but every
// response type here must stay tolerant.)
func TestUnknownFieldTolerance(t *testing.T) {
	for _, proto := range wireTypes() {
		typ := reflect.TypeOf(proto)
		t.Run(typ.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			val := reflect.New(typ)
			fill(rng, val.Elem())
			enc, err := json.Marshal(val.Interface())
			if err != nil {
				t.Fatal(err)
			}
			withExtra := append([]byte(`{"xx_future_field":{"nested":[1,2,3]},`), enc[1:]...)
			back := reflect.New(typ)
			if err := json.Unmarshal(withExtra, back.Interface()); err != nil {
				t.Fatalf("decoding with unknown fields failed: %v\npayload: %s", err, withExtra)
			}
			again, err := json.Marshal(back.Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("unknown fields corrupted known ones:\n before %s\n after %s", enc, again)
			}
		})
	}
}

func TestDecodeStreamLine(t *testing.T) {
	rec, sum, err := DecodeStreamLine([]byte(`{"index":3,"job":"dot/c4/dms","mii":2,"ii":2,"future":1}`))
	if err != nil || sum != nil || rec == nil {
		t.Fatalf("result line misclassified: rec=%v sum=%v err=%v", rec, sum, err)
	}
	if rec.Index != 3 || rec.Job != "dot/c4/dms" || rec.II != 2 {
		t.Errorf("decoded %+v", rec)
	}

	line, err := EncodeSummaryLine(Summary{Jobs: 7, Errors: 1, Cached: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, sum, err = DecodeStreamLine(line)
	if err != nil || rec != nil || sum == nil {
		t.Fatalf("summary line misclassified: rec=%v sum=%v err=%v", rec, sum, err)
	}
	if *sum != (Summary{Jobs: 7, Errors: 1, Cached: 2}) {
		t.Errorf("decoded summary %+v", sum)
	}

	if _, _, err := DecodeStreamLine([]byte(`not json`)); err == nil {
		t.Error("garbage line decoded")
	}

	for _, c := range streamLineCases {
		t.Run(c.name, func(t *testing.T) { checkStreamLine(t, c.line, c.ok) })
	}
}

func TestJobAxes(t *testing.T) {
	req := CompileRequest{
		Loops:      []string{"a", "b", "c"},
		Machines:   []MachineSpec{{Clusters: 1}, {Clusters: 2}},
		Schedulers: []string{"dms", "ims"},
	}
	if req.Jobs() != 12 {
		t.Fatalf("Jobs() = %d", req.Jobs())
	}
	// The cross product is loops outermost, schedulers innermost.
	idx := 0
	for li := range req.Loops {
		for mi := range req.Machines {
			for si := range req.Schedulers {
				l, m, s := req.JobAxes(idx)
				if l != li || m != mi || s != si {
					t.Errorf("JobAxes(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, l, m, s, li, mi, si)
				}
				idx++
			}
		}
	}
}

func TestErrorCodeProperties(t *testing.T) {
	retryable := map[ErrorCode]bool{
		CodeTimeout: true, CodeCanceled: true, CodeQueueFull: true,
		CodeInvalidRequest: false, CodeUnknownScheduler: false,
		CodeNotFound: false, CodeMethodNotAllowed: false, CodeInternal: false,
	}
	if got := CodeQueueFull.HTTPStatus(); got != http.StatusTooManyRequests {
		t.Errorf("queue_full status = %d, want 429", got)
	}
	for code, want := range retryable {
		if code.Retryable() != want {
			t.Errorf("%s.Retryable() = %v, want %v", code, code.Retryable(), want)
		}
		if code.HTTPStatus() < 400 || code.HTTPStatus() > 599 {
			t.Errorf("%s.HTTPStatus() = %d", code, code.HTTPStatus())
		}
	}
	e := &Error{Code: CodeTimeout, Message: "job took too long"}
	if e.Error() != "timeout: job took too long" {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestJobStateTerminal(t *testing.T) {
	terminal := map[JobState]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobCanceled: true, JobFailed: true,
	}
	for state, want := range terminal {
		if state.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", state, state.Terminal(), want)
		}
	}
}

func TestJobPaths(t *testing.T) {
	if got := JobPath("abc"); got != "/v1/jobs/abc" {
		t.Errorf("JobPath = %q", got)
	}
	if got := JobResultsPath("abc", 0); got != "/v1/jobs/abc/results" {
		t.Errorf("JobResultsPath(0) = %q", got)
	}
	if got := JobResultsPath("abc", 17); got != "/v1/jobs/abc/results?from=17" {
		t.Errorf("JobResultsPath(17) = %q", got)
	}
}

func TestFormatExtra(t *testing.T) {
	if got := FormatExtra(nil); got != "" {
		t.Errorf("FormatExtra(nil) = %q", got)
	}
	extra := map[string]int{"zeta": 1, "alpha": 2, "mid": 3}
	want := "alpha=2 mid=3 zeta=1"
	// Map iteration order is randomized; repeated calls must still be
	// byte-identical, which only holds if the keys are sorted.
	for i := 0; i < 50; i++ {
		if got := FormatExtra(extra); got != want {
			t.Fatalf("FormatExtra = %q, want %q", got, want)
		}
	}
}
