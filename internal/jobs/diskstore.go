package jobs

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	api "repro/api/v1"
)

// DiskStore is the durable ResultStore: one append-only segment file
// per job, each a sequence of checksummed frames (segment.go), plus
// the full in-memory index and line set of the in-process store. A
// record frame's payload is the record's line without its newline, so
// a record is encoded once for memory, segment and stream. The disk
// side exists purely for durability — reads are always served from
// memory, so streaming stays as fast as the in-memory store and a read
// never blocks on I/O.
//
// Opening a directory recovers it: every segment is scanned, torn
// tails (a crash mid-append) are truncated away, and the buffers come
// back with their lines, counters and metadata intact. The engine
// re-registers recovered jobs via Engine.RecoverFinished /
// Engine.Recover.
//
// Dropping a buffer deletes its segment — the engine's retention GC
// bounds disk the same way it bounds memory. As with every
// ResultStore, holders of a dropped Buffer keep reading it (from
// memory); only durability ends at Drop.
type DiskStore struct {
	dir  string
	sync bool // fsync after every append

	mu        sync.Mutex
	byID      map[string]*Buffer
	recovered []string // job IDs restored by Open, in no particular order
	ioErrs    uint64   // failed disk appends (memory stays authoritative)

	bytes atomic.Int64 // total size of the indexed segment files
}

// segExt suffixes one job's segment file; the name stem is the
// hex-encoded job ID.
const segExt = ".seg"

// Segment frame ops.
const (
	opRecord = 'R' // payload: a record's line without its newline
	opMeta   = 'M' // payload: opaque job metadata (see SetMeta)
)

// MaxMetaBytes bounds one SetMeta payload: metadata is one frame.
const MaxMetaBytes = maxFramePayload

// NewDiskStore opens (creating if needed) a durable result store in
// dir and recovers every segment found there. With syncEachAppend set
// every Append is fsynced before it returns, once per call however many
// records it carries, so a machine crash loses nothing acked; without
// it the OS page cache decides, and a crash can lose the last moments
// of results (a process crash alone loses nothing either way).
//
//dms:ctxok synchronous local-disk open/recovery, run once at process start
func NewDiskStore(dir string, syncEachAppend bool) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &DiskStore{dir: dir, sync: syncEachAppend, byID: make(map[string]*Buffer)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, segExt))
		if err != nil {
			continue // not one of ours
		}
		id := string(raw)
		b, err := s.recoverSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("jobs: recover segment %s: %w", name, err)
		}
		s.byID[id] = b
		s.recovered = append(s.recovered, id)
	}
	return s, nil
}

// recoverSegment replays one segment file, truncates its torn tail,
// and returns the rebuilt buffer with the file open for appends. Each
// record frame's payload becomes the record's line again; only the
// fields the counters need are decoded.
func (s *DiskStore) recoverSegment(path string) (*Buffer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	b := &Buffer{store: s, f: f}
	valid, err := scanFrames(f, func(op byte, payload []byte) error {
		switch op {
		case opRecord:
			rec, _, err := api.DecodeStreamLine(payload)
			if err != nil {
				return fmt.Errorf("record frame: %w", err)
			}
			// rec is nil for a summary line, which no buffer holds.
			b.addLocked(append(payload, '\n'), rec != nil && rec.Error != "", rec != nil && rec.Cached)
		case opMeta:
			b.meta = payload
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := truncateTorn(f, valid); err != nil {
		f.Close()
		return nil, err
	}
	b.size = valid
	s.bytes.Add(valid)
	return b, nil
}

func (s *DiskStore) segPath(id string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(id))+segExt)
}

//dms:ctxok synchronous local-disk store: Create does one bounded open, no remote I/O
func (s *DiskStore) Create(id string) *Buffer {
	b := &Buffer{store: s}
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err == nil {
		b.f = f
	} else {
		s.noteIOErr()
	}
	s.mu.Lock()
	old := s.byID[id]
	s.byID[id] = b
	s.mu.Unlock()
	if old != nil {
		// Closing the replaced segment does file I/O; keep it outside
		// the index lock. The open above truncated its file.
		s.bytes.Add(-old.detach())
	}
	return b
}

func (s *DiskStore) Get(id string) (*Buffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.byID[id]
	return b, ok
}

//dms:ctxok synchronous local-disk store: Drop does one bounded close+remove, no remote I/O
func (s *DiskStore) Drop(id string) {
	s.mu.Lock()
	b := s.byID[id]
	delete(s.byID, id)
	s.mu.Unlock()
	if b != nil {
		s.bytes.Add(-b.detach())
		os.Remove(s.segPath(id))
	}
}

func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// SetMeta appends caller-defined metadata to a job's segment, synced
// under the store's policy, and fails when the segment is not open.
// It is written, not kept in memory: a reopened store reports the last
// one through Meta.
func (s *DiskStore) SetMeta(id string, meta []byte) error {
	s.mu.Lock()
	b := s.byID[id]
	s.mu.Unlock()
	if b == nil {
		return fmt.Errorf("jobs: SetMeta on unknown job %q", id)
	}
	return b.setMeta(meta)
}

// Meta returns the last metadata recovered from id's segment when the
// store was opened, if any.
func (s *DiskStore) Meta(id string) ([]byte, bool) {
	s.mu.Lock()
	b := s.byID[id]
	s.mu.Unlock()
	if b == nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.meta == nil {
		return nil, false
	}
	return append([]byte(nil), b.meta...), true
}

// RecoveredIDs returns the job IDs restored when the store was opened.
func (s *DiskStore) RecoveredIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.recovered...)
}

// IOErrors counts disk appends that failed; the in-memory side stays
// authoritative, so serving is unaffected — only durability of those
// records is lost.
func (s *DiskStore) IOErrors() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ioErrs
}

// SegmentBytes reports the total size of the indexed segment files.
func (s *DiskStore) SegmentBytes() int64 { return s.bytes.Load() }

func (s *DiskStore) noteIOErr() {
	s.mu.Lock()
	s.ioErrs++
	s.mu.Unlock()
}

// Close releases every open segment file handle. Buffers stay
// readable from memory; further appends lose durability only.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	bufs := make([]*Buffer, 0, len(s.byID))
	//dms:orderok close sweep: detach is idempotent per buffer, no cross-buffer state
	for _, b := range s.byID {
		bufs = append(bufs, b)
	}
	s.mu.Unlock()
	for _, b := range bufs {
		b.detach()
	}
	return nil
}

func (b *Buffer) setMeta(meta []byte) error {
	frame, err := appendFrame(nil, opMeta, meta)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return errors.New("jobs: segment not open")
	}
	return b.appendFramesLocked(frame) //dms:lockok b.mu is the segment's append serialization point; frames must not interleave
}

// appendFramesLocked writes pre-encoded frames to the segment in one
// write, fsyncing once under the store's sync policy. Requires b.mu.
func (b *Buffer) appendFramesLocked(frames []byte) error {
	n, err := b.f.Write(frames)
	b.size += int64(n)
	b.store.bytes.Add(int64(n))
	if err != nil {
		return err
	}
	if b.store.sync {
		return b.f.Sync()
	}
	return nil
}

// detach closes the segment file and returns its size; the buffer
// lives on in memory.
func (b *Buffer) detach() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f != nil {
		b.f.Close() //dms:lockok b.mu orders the final close against in-flight appends; Close does not block
		b.f = nil
	}
	size := b.size
	b.size = 0
	return size
}

// mustJSON marshals v, which must be a plain wire struct; the wire
// types marshal without error by construction.
func mustJSON(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return out
}
