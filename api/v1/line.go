package api

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// This file and body.go are the package's one JSON codec: the place
// that writes a JobResult line (AppendResultLine) or reads a stream
// line (DecodeStreamLine), and writes or reads the two worker-pull
// bodies that carry units and results (body.go). All of it is
// hand-written and reflection-free; its contract is encoding/json's
// behaviour on the same types, which the package tests pin byte for
// byte (encoders) and value for value (decoders, fuzzed).

// AppendResultLine appends the NDJSON line of r to buf: exactly the
// bytes json.Marshal(r) produces, followed by '\n'. That covers the
// field order and omitempty rules of the struct tags, Extra keys in
// sorted order, encoding/json's HTML-safe string escaping (with invalid
// UTF-8 written as \ufffd) and its float64 format. Like json.Marshal it
// refuses a NaN or infinite IPC with a *json.UnsupportedValueError;
// buf is then returned unchanged.
//
//dms:hotpath
func AppendResultLine(buf []byte, r *JobResult) ([]byte, error) {
	n := len(buf)
	buf, err := appendResult(buf, r)
	if err != nil {
		return buf[:n], err
	}
	return append(buf, '\n'), nil
}

// appendResult appends the JSON object of r: exactly json.Marshal(r).
// On error the tail it leaves after the caller's length is garbage.
//
//dms:hotpath
func appendResult(buf []byte, r *JobResult) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(r.Index), 10)
	buf = append(buf, `,"job":`...)
	buf = appendJSONString(buf, r.Job)
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, r.Error)
	}
	if r.ErrorCode != "" {
		buf = append(buf, `,"error_code":`...)
		buf = appendJSONString(buf, string(r.ErrorCode))
	}
	if r.MII != 0 {
		buf = append(buf, `,"mii":`...)
		buf = strconv.AppendInt(buf, int64(r.MII), 10)
	}
	if r.II != 0 {
		buf = append(buf, `,"ii":`...)
		buf = strconv.AppendInt(buf, int64(r.II), 10)
	}
	if r.Stats != nil {
		buf = append(buf, `,"stats":`...)
		buf = appendStats(buf, r.Stats)
	}
	if r.Metrics != nil {
		buf = append(buf, `,"metrics":`...)
		var err error
		if buf, err = appendMetrics(buf, r.Metrics); err != nil {
			return buf, err
		}
	}
	if r.Schedule != "" {
		buf = append(buf, `,"schedule":`...)
		buf = appendJSONString(buf, r.Schedule)
	}
	if r.Cached {
		buf = append(buf, `,"cached":true`...)
	}
	return append(buf, '}'), nil
}

// appendStats appends s as its JSON object.
//
//dms:hotpath
func appendStats(buf []byte, s *Stats) []byte {
	buf = append(buf, `{"mii":`...)
	buf = strconv.AppendInt(buf, int64(s.MII), 10)
	buf = append(buf, `,"ii":`...)
	buf = strconv.AppendInt(buf, int64(s.II), 10)
	buf = append(buf, `,"iis_tried":`...)
	buf = strconv.AppendInt(buf, int64(s.IIsTried), 10)
	buf = append(buf, `,"placements":`...)
	buf = strconv.AppendInt(buf, int64(s.Placements), 10)
	buf = append(buf, `,"evictions":`...)
	buf = strconv.AppendInt(buf, int64(s.Evictions), 10)
	if s.OptimalII != 0 {
		buf = append(buf, `,"optimal_ii":`...)
		buf = strconv.AppendInt(buf, int64(s.OptimalII), 10)
	}
	if s.ProvedOptimal {
		buf = append(buf, `,"proved_optimal":true`...)
	}
	if len(s.Extra) > 0 {
		buf = append(buf, `,"extra":{`...)
		// The back-ends report well under 16 counters; the array keeps
		// the sort off the heap for them.
		var keyArr [16]string
		keysBuf := keyArr[:0]
		for k := range s.Extra {
			keysBuf = append(keysBuf, k)
		}
		slices.Sort(keysBuf)
		for i, k := range keysBuf {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, int64(s.Extra[k]), 10)
		}
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// appendMetrics appends m as its JSON object.
//
//dms:hotpath
func appendMetrics(buf []byte, m *ScheduleMetrics) ([]byte, error) {
	buf = append(buf, `{"ii":`...)
	buf = strconv.AppendInt(buf, int64(m.II), 10)
	buf = append(buf, `,"len":`...)
	buf = strconv.AppendInt(buf, int64(m.Len), 10)
	buf = append(buf, `,"stages":`...)
	buf = strconv.AppendInt(buf, int64(m.Stages), 10)
	buf = append(buf, `,"trip":`...)
	buf = strconv.AppendInt(buf, int64(m.Trip), 10)
	buf = append(buf, `,"useful":`...)
	buf = strconv.AppendInt(buf, int64(m.Useful), 10)
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendInt(buf, m.Cycles, 10)
	buf = append(buf, `,"ipc":`...)
	var err error
	if buf, err = appendJSONFloat(buf, m.IPC); err != nil {
		return buf, err
	}
	buf = append(buf, `,"moves_in":`...)
	buf = strconv.AppendInt(buf, int64(m.MovesIn), 10)
	return append(buf, '}'), nil
}

// appendJSONFloat formats f as encoding/json does: the shortest
// decimal that round-trips, in 'f' form except for magnitudes below
// 1e-6 or from 1e21 up, whose 'e' form drops a leading zero from a
// negative exponent.
//
//dms:hotpath
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		//dms:allocok the error path: json.Marshal's error for a value JSON cannot represent
		return buf, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with
// encoding/json's escaping: '"' and '\\' backslashed; \b \f \n \r \t
// by name; other control characters and the HTML-sensitive '<', '>'
// and '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte
// of invalid UTF-8 as \ufffd. Everything else is copied verbatim.
//
//dms:hotpath
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// DecodeStreamLine classifies and decodes one NDJSON line of a
// /v1/compile or /v1/jobs/{id}/results response: exactly one of the
// returned result and summary is non-nil. It reads the line in one
// reflection-free pass, with the semantics of a single json.Unmarshal
// into
//
//	struct {
//		JobResult
//		Summary *Summary `json:"summary"`
//	}
//
// classified as a summary exactly when Summary ends up non-nil: unknown
// fields of any JSON type are skipped (forward compatibility), the last
// of duplicate keys wins (a later "summary":null turns the line back
// into a result), null leaves a field at its zero value, and a type
// mismatch, malformed JSON or trailing garbage is an error carrying the
// "api: bad stream line:" prefix. One deliberate difference: keys must
// match the struct tags byte for byte (after unescaping), whereas
// encoding/json also accepts case-folded keys such as "INDEX".
func DecodeStreamLine(line []byte) (*JobResult, *Summary, error) {
	d := decoder{data: line}
	rec := new(JobResult)
	var sum *Summary
	if err := d.topLevel("stream line", true, func(key []byte) error { return d.resultField(key, rec, &sum) }); err != nil {
		return nil, nil, fmt.Errorf("api: bad stream line: %w", err)
	}
	if sum != nil {
		return nil, sum, nil
	}
	return rec, nil, nil
}

// maxDepth is encoding/json's nesting limit: deeper input is a
// syntax error there, so it is one here.
const maxDepth = 10000

// decoder is a cursor over one JSON document: a stream line or a
// worker-pull body.
type decoder struct {
	data  []byte
	pos   int
	depth int
	// strict makes an unknown object key an error at every depth, as
	// json.Decoder.DisallowUnknownFields does; otherwise its value is
	// skipped.
	strict bool
}

// syntaxError reports malformed JSON at the cursor.
func (d *decoder) syntaxError(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, d.pos)
}

// typeError reports a well-formed value, at the cursor, of the wrong
// JSON type for field.
func (d *decoder) typeError(field, want string) error {
	return fmt.Errorf("field %q needs %s at offset %d", field, want, d.pos)
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// topLevel decodes the top-level value, what names it in errors: an
// object, whose members go to member, or null, which decodes to the
// zero value as it does for encoding/json. With whole set, nothing but
// whitespace may follow, as for json.Unmarshal; otherwise the rest of
// the input is left unread, as json.Decoder.Decode leaves it.
func (d *decoder) topLevel(what string, whole bool, member func(key []byte) error) error {
	d.skipSpace()
	switch d.peek() {
	case '{':
		if err := d.object(member); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		if err := d.skipValue(); err != nil {
			return err
		}
		return fmt.Errorf("%s is not a JSON object", what)
	}
	if !whole {
		return nil
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.syntaxError("invalid character after top-level value")
	}
	return nil
}

// unknown handles the value of an object key no field matches: an
// error in strict mode, with encoding/json's text, and skipped
// otherwise.
func (d *decoder) unknown(key []byte) error {
	if d.strict {
		return fmt.Errorf("json: unknown field %q", key)
	}
	return d.skipValue()
}

// resultField decodes one member of a JobResult object. A stream line
// also has the summary member, which sum (nil for a results body)
// receives.
func (d *decoder) resultField(key []byte, rec *JobResult, sum **Summary) error {
	switch string(key) {
	case "index":
		return d.intField("index", &rec.Index)
	case "job":
		return d.stringField("job", &rec.Job)
	case "error":
		return d.stringField("error", &rec.Error)
	case "error_code":
		return d.stringField("error_code", (*string)(&rec.ErrorCode))
	case "mii":
		return d.intField("mii", &rec.MII)
	case "ii":
		return d.intField("ii", &rec.II)
	case "stats":
		return d.statsField(&rec.Stats)
	case "metrics":
		return d.metricsField(&rec.Metrics)
	case "schedule":
		return d.stringField("schedule", &rec.Schedule)
	case "cached":
		return d.boolField("cached", &rec.Cached)
	case "summary":
		if sum != nil {
			return d.summaryField(sum)
		}
	}
	return d.unknown(key)
}

// objectField decodes an object-typed field into *pp the way
// encoding/json decodes into a pointer: null stores nil; an object
// merges its members, through member, into *pp (allocated if nil).
func objectField[T any](d *decoder, field string, pp **T, member func(v *T, key []byte) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*pp = nil
		return nil
	case '{':
		if *pp == nil {
			*pp = new(T)
		}
	}
	return structField(d, field, *pp, member)
}

// structField decodes an object-typed field into the struct value *v
// the way encoding/json does: null leaves *v alone; an object merges
// its members, through member, into *v.
func structField[T any](d *decoder, field string, v *T, member func(v *T, key []byte) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key []byte) error { return member(v, key) })
	}
	if err := d.checkValue(); err != nil {
		return err
	}
	return d.typeError(field, "an object")
}

// sliceField decodes an array-typed field into *s the way encoding/json
// decodes into a slice: null stores nil; an array decodes its element
// i, through elem, into (*s)[i], and leaves *s holding exactly its
// elements, an empty array as a non-nil empty slice. Like encoding/json
// it decodes into the elements an earlier duplicate key left, and into
// those that key's array left past the new length in the capacity,
// rather than zeroing them first.
func sliceField[T any](d *decoder, field string, s *[]T, elem func(v *T) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
	default:
		if err := d.checkValue(); err != nil {
			return err
		}
		return d.typeError(field, "an array")
	}
	d.depth++
	if d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	d.pos++ // '['
	d.skipSpace()
	v := *s
	i := 0
	for d.peek() != ']' {
		if i == cap(v) {
			var zero T
			v = append(v, zero)
		} else if i >= len(v) {
			v = v[:i+1]
		}
		if err := elem(&v[i]); err != nil {
			return err
		}
		i++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
			if d.peek() == ']' {
				return d.syntaxError("invalid character ']' looking for beginning of value")
			}
		case ']':
		default:
			return d.syntaxError("expected ',' or ']' after array element")
		}
	}
	d.pos++
	d.depth--
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
	return nil
}

func (d *decoder) statsField(pp **Stats) error {
	return objectField(d, "stats", pp, func(s *Stats, key []byte) error {
		switch string(key) {
		case "mii":
			return d.intField("mii", &s.MII)
		case "ii":
			return d.intField("ii", &s.II)
		case "iis_tried":
			return d.intField("iis_tried", &s.IIsTried)
		case "placements":
			return d.intField("placements", &s.Placements)
		case "evictions":
			return d.intField("evictions", &s.Evictions)
		case "optimal_ii":
			return d.intField("optimal_ii", &s.OptimalII)
		case "proved_optimal":
			return d.boolField("proved_optimal", &s.ProvedOptimal)
		case "extra":
			return d.extraField(&s.Extra)
		}
		return d.unknown(key)
	})
}

// extraField decodes the Extra map the way encoding/json decodes a
// map: null stores nil; an object adds its members to the map
// (allocated if nil), a null member value as 0.
func (d *decoder) extraField(pm *map[string]int) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*pm = nil
		return nil
	case '{':
		if *pm == nil {
			*pm = make(map[string]int)
		}
		m := *pm
		return d.object(func(key []byte) error {
			v := 0
			if err := d.intField("extra", &v); err != nil {
				return err
			}
			m[string(key)] = v
			return nil
		})
	}
	if err := d.checkValue(); err != nil {
		return err
	}
	return d.typeError("extra", "an object")
}

func (d *decoder) metricsField(pp **ScheduleMetrics) error {
	return objectField(d, "metrics", pp, func(m *ScheduleMetrics, key []byte) error {
		switch string(key) {
		case "ii":
			return d.intField("ii", &m.II)
		case "len":
			return d.intField("len", &m.Len)
		case "stages":
			return d.intField("stages", &m.Stages)
		case "trip":
			return d.intField("trip", &m.Trip)
		case "useful":
			return d.intField("useful", &m.Useful)
		case "cycles":
			return d.int64Field("cycles", &m.Cycles)
		case "ipc":
			return d.floatField("ipc", &m.IPC)
		case "moves_in":
			return d.intField("moves_in", &m.MovesIn)
		}
		return d.unknown(key)
	})
}

func (d *decoder) summaryField(pp **Summary) error {
	return objectField(d, "summary", pp, func(s *Summary, key []byte) error {
		switch string(key) {
		case "jobs":
			return d.intField("jobs", &s.Jobs)
		case "errors":
			return d.intField("errors", &s.Errors)
		case "cached":
			return d.intField("cached", &s.Cached)
		}
		return d.unknown(key)
	})
}

// object walks the object at the cursor, calling member for each key
// (unescaped) with the cursor on the key's value; member must consume
// that value.
func (d *decoder) object(member func(key []byte) error) error {
	d.depth++
	if d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("expected object key")
		}
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			key = []byte(unquote(raw))
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxError("expected ':' after object key")
		}
		d.pos++
		d.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("expected ',' or '}' after object value")
		}
	}
}

// intField decodes an integer field: null leaves *p alone; a number
// must be an integer literal in int range.
func (d *decoder) intField(field string, p *int) error {
	var v int64
	if stored, err := d.integer(field, &v); !stored {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("number %d overflows int field %q", v, field)
	}
	*p = int(v)
	return nil
}

func (d *decoder) int64Field(field string, p *int64) error {
	_, err := d.integer(field, p)
	return err
}

// integer decodes an integer-typed value into *p, reporting whether it
// stored one (false for null or on error).
func (d *decoder) integer(field string, p *int64) (bool, error) {
	switch c := d.peek(); {
	case c == 'n':
		return false, d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		lit, err := d.scanNumber()
		if err != nil {
			return false, err
		}
		v, ok := parseJSONInt(lit)
		if !ok {
			return false, fmt.Errorf("cannot decode number %s into integer field %q", lit, field)
		}
		*p = v
		return true, nil
	}
	if err := d.checkValue(); err != nil {
		return false, err
	}
	return false, d.typeError(field, "an integer")
}

// parseJSONInt parses a JSON number literal as an int64, failing (as
// strconv.ParseInt does) on a fraction, an exponent or overflow.
func parseJSONInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		if u > (math.MaxUint64-9)/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

func (d *decoder) floatField(field string, p *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		lit, err := d.scanNumber()
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return fmt.Errorf("cannot decode number %s into float field %q", lit, field)
		}
		*p = v
		return nil
	}
	if err := d.checkValue(); err != nil {
		return err
	}
	return d.typeError(field, "a number")
}

func (d *decoder) boolField(field string, p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	}
	if err := d.checkValue(); err != nil {
		return err
	}
	return d.typeError(field, "a bool")
}

func (d *decoder) stringField(field string, p *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if plain {
			*p = string(raw)
		} else {
			*p = unquote(raw)
		}
		return nil
	}
	if err := d.checkValue(); err != nil {
		return err
	}
	return d.typeError(field, "a string")
}

// checkValue validates the value at the cursor without consuming it,
// so a malformed value is reported as the syntax error it is rather
// than as a type mismatch.
func (d *decoder) checkValue() error {
	start, depth := d.pos, d.depth
	err := d.skipValue()
	d.pos, d.depth = start, depth
	return err
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.syntaxError("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// skipValue consumes one well-formed JSON value of any type.
func (d *decoder) skipValue() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skipValue() })
	case c == '[':
		return d.array()
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '-' || c >= '0' && c <= '9':
		_, err := d.scanNumber()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case d.pos >= len(d.data):
		return d.syntaxError("unexpected end of JSON input")
	}
	return d.syntaxError("invalid character looking for beginning of value")
}

func (d *decoder) array() error {
	d.depth++
	if d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	d.pos++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := d.skipValue(); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("expected ',' or ']' after array element")
		}
	}
}

// scanNumber consumes a number literal, checking the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) scanNumber() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.skipDigits()
	default:
		return nil, d.syntaxError("invalid number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.skipDigits() {
			return nil, d.syntaxError("invalid number: no digits after decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.skipDigits() {
			return nil, d.syntaxError("invalid number: no digits in exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// skipDigits consumes a run of decimal digits, reporting whether there
// was at least one.
func (d *decoder) skipDigits() bool {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// scanString consumes a string literal and returns its raw content
// between the quotes. plain reports that the content is ASCII without
// escapes, so it is its own decoded value.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	d.pos++ // '"'
	start := d.pos
	plain = true
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			raw = d.data[start:d.pos]
			d.pos++
			return raw, plain, nil
		case c == '\\':
			plain = false
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for range 4 {
					if !isHex(d.peek()) {
						return nil, false, d.syntaxError("invalid \\u escape in string")
					}
					d.pos++
				}
			default:
				return nil, false, d.syntaxError("invalid escape in string")
			}
		case c < 0x20:
			return nil, false, d.syntaxError("invalid control character in string")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.pos++
		}
	}
	return nil, false, d.syntaxError("unexpected end of JSON input in string")
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// unquote decodes the raw content of a scanned string literal as
// encoding/json does: escapes resolved, a \u escape of an unpaired
// surrogate and every byte of invalid UTF-8 replaced by U+FFFD. The
// builder makes the result the string's only allocation.
func unquote(raw []byte) string {
	var b strings.Builder
	b.Grow(len(raw))
	start := 0
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				b.Write(raw[start:i])
				b.WriteRune(utf8.RuneError)
				i++
				start = i
				continue
			}
			i += size
			continue
		}
		if c != '\\' {
			i++
			continue
		}
		b.Write(raw[start:i])
		switch e := raw[i+1]; e {
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			b.WriteRune(r)
			start = i
			continue
		default: // '"', '\\', '/'
			b.WriteByte(e)
		}
		i += 2
		start = i
	}
	b.Write(raw[start:])
	return b.String()
}

// hex4 decodes the four hex digits at the start of b (validated by
// scanString).
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		default:
			c = c - 'A' + 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
