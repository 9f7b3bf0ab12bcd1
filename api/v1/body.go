package api

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// The worker-pull bodies: the Lease a coordinator answers
// POST /v1/workers/lease with and the WorkResultsRequest a worker posts
// to /v1/workers/{lease}/results. They go through line.go's codec, so
// the path that carries every distributed unit pays no reflection.

// maxBodyPresize caps the buffer ReadBody allocates before reading.
const maxBodyPresize = 1 << 20

// ReadBody reads a worker-pull body to EOF, into one buffer presized
// from its declared length: an HTTP Content-Length, or -1 when it is
// unknown. The presize is capped at 1 MiB, so a lying header cannot
// make the reader allocate more before the bytes arrive; a longer body
// grows the buffer as it reads. A body of unknown length starts as
// io.ReadAll's does, at 512 bytes.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead spare bytes let the read that reports EOF land without
	// growing the buffer.
	buf.Grow(int(min(max(declared, 0), maxBodyPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// AppendLease appends the JSON of l to buf: exactly the bytes
// json.Marshal(l) produces. A unit's machine config, a raw JSON value,
// is validated, compacted and HTML-escaped as json.Marshal does; an
// invalid one is an error, and buf is then returned unchanged.
//
//dms:hotpath
func AppendLease(buf []byte, l *Lease) ([]byte, error) {
	n := len(buf)
	buf = append(buf, '{')
	if l.ID != "" {
		buf = append(buf, `"id":`...)
		buf = appendJSONString(buf, l.ID)
	}
	if len(l.Units) > 0 {
		if len(buf) > n+1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"units":[`...)
		for i := range l.Units {
			u := &l.Units[i]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"id":`...)
			buf = appendJSONString(buf, u.ID)
			buf = append(buf, `,"hash":`...)
			buf = appendJSONString(buf, u.Hash)
			buf = append(buf, `,"loop":`...)
			buf = appendJSONString(buf, u.Loop)
			buf = append(buf, `,"machine":{`...)
			start := len(buf)
			buf = appendIntMember(buf, start, `"clusters":`, u.Machine.Clusters)
			buf = appendTrueMember(buf, start, `"unclustered":true`, u.Machine.Unclustered)
			if cfg := u.Machine.Config; len(cfg) > 0 {
				if len(buf) > start {
					buf = append(buf, ',')
				}
				buf = append(buf, `"config":`...)
				var err error
				if buf, err = appendRawJSON(buf, cfg); err != nil {
					return buf[:n], err
				}
			}
			buf = append(buf, `},"scheduler":`...)
			buf = appendJSONString(buf, u.Scheduler)
			buf = append(buf, `,"options":`...)
			buf = appendOptions(buf, &u.Options)
			if u.TimeoutMS != 0 {
				buf = append(buf, `,"timeout_ms":`...)
				buf = strconv.AppendInt(buf, int64(u.TimeoutMS), 10)
			}
			if u.NoCache {
				buf = append(buf, `,"no_cache":true`...)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = appendIntMember(buf, n+1, `"ttl_ms":`, l.TTLMS)
	buf = appendIntMember(buf, n+1, `"poll_ms":`, l.PollMS)
	buf = appendIntMember(buf, n+1, `"remaining":`, l.Remaining)
	return append(buf, '}'), nil
}

// appendOptions appends o as its JSON object.
//
//dms:hotpath
func appendOptions(buf []byte, o *Options) []byte {
	buf = append(buf, '{')
	start := len(buf)
	buf = appendIntMember(buf, start, `"budget_ratio":`, o.BudgetRatio)
	buf = appendIntMember(buf, start, `"max_ii":`, o.MaxII)
	buf = appendTrueMember(buf, start, `"disable_chains":true`, o.DisableChains)
	buf = appendTrueMember(buf, start, `"one_direction_only":true`, o.OneDirectionOnly)
	buf = appendIntMember(buf, start, `"refinement_passes":`, o.RefinementPasses)
	buf = appendIntMember(buf, start, `"load_slack":`, o.LoadSlack)
	return append(buf, '}')
}

// appendIntMember appends an omitempty int member, key (quoted, with
// its colon) then v, to an object whose members start at buf[start].
//
//dms:hotpath
func appendIntMember(buf []byte, start int, key string, v int) []byte {
	if v == 0 {
		return buf
	}
	if len(buf) > start {
		buf = append(buf, ',')
	}
	buf = append(buf, key...)
	return strconv.AppendInt(buf, int64(v), 10)
}

// appendTrueMember appends member, an omitempty bool's key with its
// true value, when v is set; start is as for appendIntMember.
//
//dms:hotpath
func appendTrueMember(buf []byte, start int, member string, v bool) []byte {
	if !v {
		return buf
	}
	if len(buf) > start {
		buf = append(buf, ',')
	}
	return append(buf, member...)
}

// appendRawJSON appends the raw JSON value raw as json.Marshal writes a
// json.RawMessage: validated, with the whitespace between tokens
// dropped and '<', '>', '&', U+2028 and U+2029 escaped.
//
//dms:hotpath
func appendRawJSON(buf []byte, raw []byte) ([]byte, error) {
	d := decoder{data: raw}
	d.skipSpace()
	if err := d.skipValue(); err != nil {
		return buf, err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return buf, d.syntaxError("invalid character after top-level value")
	}
	inString := false
	start := 0
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case inString && c == '\\':
			i++ // the escaped byte cannot end the string
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			buf = append(buf, raw[start:i]...)
			start = i + 1
		case c == '<' || c == '>' || c == '&':
			buf = append(buf, raw[start:i]...)
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			buf = append(buf, raw[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			start = i + 1
		}
	}
	return append(buf, raw[start:]...), nil
}

// AppendWorkResults appends the JSON of r to buf: exactly the bytes
// json.Marshal(r) produces, each result written by AppendResultLine's
// encoder. Like json.Marshal it refuses a NaN or infinite IPC; buf is
// then returned unchanged.
//
//dms:hotpath
func AppendWorkResults(buf []byte, r *WorkResultsRequest) ([]byte, error) {
	n := len(buf)
	buf = append(buf, '{')
	if r.Protocol != "" {
		buf = append(buf, `"protocol":`...)
		buf = appendJSONString(buf, r.Protocol)
		buf = append(buf, ',')
	}
	buf = append(buf, `"results":`...)
	if r.Results == nil {
		return append(buf, `null}`...), nil
	}
	buf = append(buf, '[')
	for i := range r.Results {
		ur := &r.Results[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"unit":`...)
		buf = appendJSONString(buf, ur.Unit)
		buf = append(buf, `,"result":`...)
		var err error
		if buf, err = appendResult(buf, &ur.Result); err != nil {
			return buf[:n], err
		}
		buf = append(buf, '}')
	}
	return append(buf, ']', '}'), nil
}

// DecodeWorkResults decodes a POST /v1/workers/{lease}/results body in
// one reflection-free pass, with the semantics of a json.Decoder with
// DisallowUnknownFields reading one value into a WorkResultsRequest:
// an unknown key at any depth is an error carrying encoding/json's
// text (`json: unknown field "k"`), the last of duplicate keys wins,
// null decodes to the zero request (a heartbeat), and the input after
// the first value is not read. A type mismatch or malformed JSON is an
// error. As for DecodeStreamLine, keys must match the struct tags byte
// for byte, so a case-folded key such as "UNIT", which encoding/json
// matches, is an unknown field here.
func DecodeWorkResults(body []byte) (*WorkResultsRequest, error) {
	d := decoder{data: body, strict: true}
	r := new(WorkResultsRequest)
	err := d.topLevel("results body", false, func(key []byte) error {
		switch string(key) {
		case "protocol":
			return d.stringField("protocol", &r.Protocol)
		case "results":
			return sliceField(&d, "results", &r.Results, d.unitResult)
		}
		return d.unknown(key)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// unitResult decodes one element of a results array.
func (d *decoder) unitResult(ur *UnitResult) error {
	return structField(d, "results", ur, func(ur *UnitResult, key []byte) error {
		switch string(key) {
		case "unit":
			return d.stringField("unit", &ur.Unit)
		case "result":
			return structField(d, "result", &ur.Result, func(rec *JobResult, key []byte) error {
				return d.resultField(key, rec, nil)
			})
		}
		return d.unknown(key)
	})
}

// DecodeLease decodes a POST /v1/workers/lease response in one
// reflection-free pass, with the semantics of one json.Unmarshal into a
// Lease: unknown fields of any JSON type are skipped (forward
// compatibility), the last of duplicate keys wins, null leaves a field
// at its zero value, a machine config keeps its raw bytes, and a type
// mismatch, malformed JSON or trailing garbage is an error. As for
// DecodeStreamLine, keys must match the struct tags byte for byte.
func DecodeLease(body []byte) (*Lease, error) {
	d := decoder{data: body}
	l := new(Lease)
	err := d.topLevel("lease", true, func(key []byte) error {
		switch string(key) {
		case "id":
			return d.stringField("id", &l.ID)
		case "units":
			return sliceField(&d, "units", &l.Units, d.workUnit)
		case "ttl_ms":
			return d.intField("ttl_ms", &l.TTLMS)
		case "poll_ms":
			return d.intField("poll_ms", &l.PollMS)
		case "remaining":
			return d.intField("remaining", &l.Remaining)
		}
		return d.unknown(key)
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// workUnit decodes one element of a lease's units array.
func (d *decoder) workUnit(u *WorkUnit) error {
	return structField(d, "units", u, func(u *WorkUnit, key []byte) error {
		switch string(key) {
		case "id":
			return d.stringField("id", &u.ID)
		case "hash":
			return d.stringField("hash", &u.Hash)
		case "loop":
			return d.stringField("loop", &u.Loop)
		case "machine":
			return structField(d, "machine", &u.Machine, d.machineMember)
		case "scheduler":
			return d.stringField("scheduler", &u.Scheduler)
		case "options":
			return structField(d, "options", &u.Options, d.optionsMember)
		case "timeout_ms":
			return d.intField("timeout_ms", &u.TimeoutMS)
		case "no_cache":
			return d.boolField("no_cache", &u.NoCache)
		}
		return d.unknown(key)
	})
}

func (d *decoder) machineMember(m *MachineSpec, key []byte) error {
	switch string(key) {
	case "clusters":
		return d.intField("clusters", &m.Clusters)
	case "unclustered":
		return d.boolField("unclustered", &m.Unclustered)
	case "config":
		return d.rawField(&m.Config)
	}
	return d.unknown(key)
}

func (d *decoder) optionsMember(o *Options, key []byte) error {
	switch string(key) {
	case "budget_ratio":
		return d.intField("budget_ratio", &o.BudgetRatio)
	case "max_ii":
		return d.intField("max_ii", &o.MaxII)
	case "disable_chains":
		return d.boolField("disable_chains", &o.DisableChains)
	case "one_direction_only":
		return d.boolField("one_direction_only", &o.OneDirectionOnly)
	case "refinement_passes":
		return d.intField("refinement_passes", &o.RefinementPasses)
	case "load_slack":
		return d.intField("load_slack", &o.LoadSlack)
	}
	return d.unknown(key)
}

// rawField decodes a json.RawMessage field as encoding/json does: a
// copy of the value's bytes, whatever its type, null included.
func (d *decoder) rawField(p *json.RawMessage) error {
	start := d.pos
	if err := d.skipValue(); err != nil {
		return err
	}
	*p = append((*p)[:0], d.data[start:d.pos]...)
	return nil
}
