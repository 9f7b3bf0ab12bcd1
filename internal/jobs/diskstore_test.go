package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	api "repro/api/v1"
)

func openDiskStore(t *testing.T, dir string) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// decode parses buffered lines back into records.
func decode(t testing.TB, lines [][]byte) []api.JobResult {
	t.Helper()
	recs := make([]api.JobResult, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &recs[i]); err != nil {
			t.Errorf("line %q: %v", line, err)
		}
	}
	return recs
}

// TestDiskStoreRecovery is the point of the disk store: records, the
// derived counters, and job metadata all survive a close/reopen.
func TestDiskStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := openDiskStore(t, dir)
	b := s1.Create("job-a")
	b.Append(api.JobResult{Index: 0, Job: "ok", Schedule: "t=0 c=0 mem x\n"})
	b.Append(api.JobResult{Index: 1, Job: "bad", Error: "boom"})
	b.Append(api.JobResult{Index: 2, Job: "hit", Cached: true})
	if err := s1.SetMeta("job-a", []byte(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	s1.Create("job-b").Append(api.JobResult{Index: 0, Job: "only"})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDiskStore(t, dir)
	if got := len(s2.RecoveredIDs()); got != 2 {
		t.Fatalf("recovered %d buffers (%v), want 2", got, s2.RecoveredIDs())
	}
	got, ok := s2.Get("job-a")
	if !ok {
		t.Fatal("job-a not recovered")
	}
	recs := decode(t, got.Results(0))
	if len(recs) != 3 || recs[0].Job != "ok" || recs[1].Error != "boom" || !recs[2].Cached {
		t.Fatalf("job-a records corrupted: %+v", recs)
	}
	st := got.Stats()
	if st.Results != 3 || st.Errors != 1 || st.Cached != 1 || st.Bytes <= 0 {
		t.Fatalf("job-a counters not rebuilt: %+v", st)
	}
	if meta, ok := s2.Meta("job-a"); !ok || string(meta) != `{"n":3}` {
		t.Fatalf("job-a meta = %q (present=%v)", meta, ok)
	}
	if _, ok := s2.Meta("job-b"); ok {
		t.Fatal("job-b invented metadata")
	}

	// The recovered buffer accepts further appends, and they stick
	// across another reopen.
	got.Append(api.JobResult{Index: 3, Job: "late"})
	s2.Close()
	s3 := openDiskStore(t, dir)
	b3, _ := s3.Get("job-a")
	if recs := decode(t, b3.Results(0)); len(recs) != 4 || recs[3].Job != "late" {
		t.Fatalf("post-recovery append lost: %+v", recs)
	}
}

// TestDiskStoreTornTail pins crash recovery: a partial frame at the
// end of a segment (the write a crash interrupted) is truncated away,
// the intact prefix survives, and the segment accepts new appends.
func TestDiskStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s1 := openDiskStore(t, dir)
	b := s1.Create("job")
	b.Append(api.JobResult{Index: 0, Job: "keep"})
	b.Append(api.JobResult{Index: 1, Job: "keep too"})
	s1.Close()

	f, err := os.OpenFile(s1.segPath("job"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: a plausible length prefix followed by garbage that
	// cannot checksum.
	if _, err := f.Write([]byte{40, 0, 0, 0, 'R', 0xde, 0xad, 0xbe, 0xef, 'g', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDiskStore(t, dir)
	bb, ok := s2.Get("job")
	if !ok {
		t.Fatal("segment with torn tail not recovered")
	}
	if recs := decode(t, bb.Results(0)); len(recs) != 2 || recs[1].Job != "keep too" {
		t.Fatalf("intact prefix lost: %+v", recs)
	}
	bb.Append(api.JobResult{Index: 2, Job: "after"})
	s2.Close()
	s3 := openDiskStore(t, dir)
	b3, _ := s3.Get("job")
	if recs := decode(t, b3.Results(0)); len(recs) != 3 || recs[2].Job != "after" {
		t.Fatalf("append after torn-tail truncation lost: %+v", recs)
	}
}

// TestDiskStoreDropRemovesSegment: retention GC must bound disk too.
func TestDiskStoreDropRemovesSegment(t *testing.T) {
	dir := t.TempDir()
	s := openDiskStore(t, dir)
	b := s.Create("job")
	b.Append(api.JobResult{Index: 0})
	seg := s.segPath("job")
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("segment missing before drop: %v", err)
	}
	s.Drop("job")
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("segment still on disk after drop: %v", err)
	}
	// The dropped buffer stays readable and writable — memory-only.
	b.Append(api.JobResult{Index: 1})
	if recs := b.Results(0); len(recs) != 2 {
		t.Fatalf("dropped buffer lost records: %+v", recs)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatal("append after drop resurrected the segment")
	}
}

// TestDiskStoreGroupAppend: a multi-record Append lands in one write
// and recovers whole, in order. A crash in the middle of that write
// leaves a torn tail; recovery keeps exactly the group's whole frames,
// a prefix of the group, and the segment accepts new appends.
func TestDiskStoreGroupAppend(t *testing.T) {
	dir := t.TempDir()
	s1 := openDiskStore(t, dir)
	s1.Create("job").Append(api.JobResult{Index: 0, Job: "first"})
	seg := s1.segPath("job")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Size()
	group := []api.JobResult{
		{Index: 1, Job: "a", Schedule: "t=0 c=0 mem x\n"},
		{Index: 2, Job: "b", Error: "boom"},
		{Index: 3, Job: "c", Cached: true},
	}
	b, _ := s1.Get("job")
	b.Append(group...)
	s1.Close()

	s2 := openDiskStore(t, dir)
	got, _ := s2.Get("job")
	recs := decode(t, got.Results(0))
	if len(recs) != 4 || recs[1].Job != "a" || recs[2].Error != "boom" || !recs[3].Cached {
		t.Fatalf("group append recovered as %+v", recs)
	}
	if st := got.Stats(); st.Results != 4 || st.Errors != 1 || st.Cached != 1 {
		t.Fatalf("group append counters = %+v", st)
	}
	s2.Close()

	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the segment size holding the group's first k frames.
	ends := []int64{before}
	for _, rec := range group {
		frame, err := appendFrame(nil, opRecord, mustJSON(rec))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+int64(len(frame)))
	}
	if ends[len(group)] != int64(len(full)) {
		t.Fatalf("segment is %d bytes, want %d", len(full), ends[len(group)])
	}
	for cut := before; cut < int64(len(full)); cut++ {
		whole := 0
		for whole < len(group) && ends[whole+1] <= cut {
			whole++
		}
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openDiskStore(t, dir)
		b, _ := s.Get("job")
		recs := decode(t, b.Results(0))
		if len(recs) != 1+whole {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), 1+whole)
		}
		for k, rec := range recs[1:] {
			if rec.Job != group[k].Job {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, k+1, rec, group[k])
			}
		}
		b.Append(api.JobResult{Index: 9, Job: "after"})
		s.Close()
		s = openDiskStore(t, dir)
		b, _ = s.Get("job")
		if recs := decode(t, b.Results(0)); len(recs) != 2+whole || recs[len(recs)-1].Job != "after" {
			t.Fatalf("cut %d: append after truncation lost: %+v", cut, recs)
		}
		s.Close()
	}
}

// TestDiskStoreCutMetaFrames cuts a segment at every byte of its first
// metadata frame (a batch's request record) and of its terminal one (a
// cancellation record). Recovery never fails, reaches the same state
// when run twice, and reports the last intact metadata frame: none
// within the first frame, the first within the terminal one.
func TestDiskStoreCutMetaFrames(t *testing.T) {
	dir := t.TempDir()
	request := []byte(`{"n":2,"request":{"loops":["loop l trip 10\nx = load\n"],"machines":[{"clusters":2}],"schedulers":["dms"],"options":{}}}`)
	terminal := []byte(`{"n":2,"state":"canceled"}`)
	s1 := openDiskStore(t, dir)
	s1.Create("job")
	if err := s1.SetMeta("job", request); err != nil {
		t.Fatal(err)
	}
	b, _ := s1.Get("job")
	b.Append(api.JobResult{Index: 0, Job: "done"})
	if err := s1.SetMeta("job", terminal); err != nil {
		t.Fatal(err)
	}
	seg := s1.segPath("job")
	if got := s1.SegmentBytes(); got <= 0 {
		t.Fatalf("SegmentBytes = %d after three frames", got)
	}
	if _, ok := s1.Meta("job"); ok {
		t.Fatal("metadata written in this process kept in memory")
	}
	s1.Close()
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	reqFrame, _ := appendFrame(nil, opMeta, request)
	termFrame, _ := appendFrame(nil, opMeta, terminal)
	reqEnd := len(reqFrame)
	termStart := len(full) - len(termFrame)

	type state struct {
		meta  string
		recs  int
		bytes int64
	}
	recoverCut := func() state {
		s := openDiskStore(t, dir)
		defer s.Close()
		st := state{bytes: s.SegmentBytes()}
		if meta, ok := s.Meta("job"); ok {
			st.meta = string(meta)
		}
		if b, ok := s.Get("job"); ok {
			st.recs = len(b.Results(0))
		}
		return st
	}
	check := func(cut int, wantMeta []byte, wantRecs int) {
		t.Helper()
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		first := recoverCut()
		if first.meta != string(wantMeta) || first.recs != wantRecs {
			t.Fatalf("cut %d: meta %q with %d records, want %q with %d", cut, first.meta, first.recs, wantMeta, wantRecs)
		}
		if again := recoverCut(); again != first {
			t.Fatalf("cut %d: second recovery %+v, first %+v", cut, again, first)
		}
	}
	for cut := 0; cut < reqEnd; cut++ {
		check(cut, nil, 0)
	}
	for cut := termStart; cut < len(full); cut++ {
		check(cut, request, 1)
	}
	check(len(full), terminal, 1)
}

// FuzzSegmentRecovery writes a segment of intact record and metadata
// frames with arbitrary payloads, followed by an arbitrary torn tail,
// and opens it twice. An open never panics: it fails on a record frame
// that does not decode, or it recovers exactly the intact frames — the
// lines are the record payloads plus a newline, in order, and the
// metadata is the last metadata payload — and both opens agree.
func FuzzSegmentRecovery(f *testing.F) {
	rec := func(r api.JobResult) []byte {
		line := mustJSON(r)
		return append([]byte{byte(len(line)<<1) | 1}, line...)
	}
	meta := []byte(`{"n":2}`)
	valid := append(append(append([]byte{byte(len(meta) << 1)}, meta...),
		rec(api.JobResult{Index: 0, Job: "a", II: 3})...),
		rec(api.JobResult{Index: 1, Error: "boom", Cached: true})...)
	f.Add(valid, []byte{40, 0, 0, 0, 'R', 0xde, 0xad})
	f.Add(valid, []byte(nil))
	f.Add([]byte{7, 'n', 'u', 'l', 'l'}, []byte{0})
	f.Add([]byte{3, '{', '}', 5, '[', ']'}, []byte("junk"))
	f.Fuzz(func(t *testing.T, spec, tail []byte) {
		// Each frame is one control byte (bit 0: record, else metadata;
		// the rest: payload length) and its payload.
		var seg []byte
		var wantLines [][]byte
		var wantMeta []byte
		for len(spec) > 0 {
			ctl := spec[0]
			n := min(int(ctl>>1), len(spec)-1)
			payload := spec[1 : 1+n]
			spec = spec[1+n:]
			op := byte(opMeta)
			if ctl&1 == 1 {
				op = opRecord
				wantLines = append(wantLines, append(append([]byte(nil), payload...), '\n'))
			} else {
				wantMeta = append([]byte{}, payload...)
			}
			seg, _ = appendFrame(seg, op, payload)
		}
		intact := len(seg)
		// A tail that happens to hold a whole checksummed frame is not
		// torn: flip a checksum bit so it is.
		if len(tail) >= frameHeaderLen {
			if n := int(binary.LittleEndian.Uint32(tail[:4])); n <= len(tail)-frameHeaderLen {
				if whole, _ := appendFrame(nil, tail[4], tail[frameHeaderLen:frameHeaderLen+n]); bytes.Equal(whole, tail[:frameHeaderLen+n]) {
					tail = append([]byte(nil), tail...)
					tail[5] ^= 1
				}
			}
		}
		seg = append(seg, tail...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString([]byte("job"))+segExt), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		type state struct {
			lines   [][]byte
			stats   BufferStats
			meta    []byte
			hasMeta bool
			bytes   int64
		}
		open := func() (state, error) {
			s, err := NewDiskStore(dir, false)
			if err != nil {
				return state{}, err
			}
			defer s.Close()
			b, ok := s.Get("job")
			if !ok {
				t.Fatal("segment not recovered")
			}
			st := state{lines: b.Results(0), stats: b.Stats(), bytes: s.SegmentBytes()}
			st.meta, st.hasMeta = s.Meta("job")
			return st, nil
		}
		first, err := open()
		if err != nil {
			if !strings.Contains(err.Error(), "record frame") {
				t.Fatalf("open failed for a reason other than an undecodable record: %v", err)
			}
			if _, again := open(); again == nil || again.Error() != err.Error() {
				t.Fatalf("second open: %v, first: %v", again, err)
			}
			return
		}
		if len(first.lines) != len(wantLines) {
			t.Fatalf("recovered %d lines, want %d", len(first.lines), len(wantLines))
		}
		var wantBytes int64
		for i, line := range wantLines {
			if !bytes.Equal(first.lines[i], line) {
				t.Fatalf("line %d = %q, want %q", i, first.lines[i], line)
			}
			wantBytes += int64(len(line))
		}
		if first.stats.Results != len(wantLines) || first.stats.Bytes != wantBytes {
			t.Fatalf("stats = %+v, want %d results of %d bytes", first.stats, len(wantLines), wantBytes)
		}
		if first.hasMeta != (wantMeta != nil) || !bytes.Equal(first.meta, wantMeta) {
			t.Fatalf("meta = %q (present %v), want %q", first.meta, first.hasMeta, wantMeta)
		}
		if first.bytes != int64(intact) {
			t.Fatalf("segment bytes = %d, want the %d intact bytes", first.bytes, intact)
		}
		second, err := open()
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second open = %+v, first %+v", second, first)
		}
	})
}
