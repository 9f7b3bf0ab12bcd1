package jobs

import (
	"os"
	"sync"

	api "repro/api/v1"
)

// BufferStats is a snapshot of one result buffer's counters.
type BufferStats struct {
	// Results is the number of buffered records; Errors and Cached
	// count records with a non-empty Error and with Cached set.
	Results int
	Errors  int
	Cached  int
	// Bytes is the total size of the buffered records' encoded lines.
	Bytes int64
}

// ResultStore owns the per-job result buffers behind the engine: one
// append-only Buffer per job ID. The engine is the only writer of the
// ID space; a store never invents or rewrites buffers. Dropping a
// buffer removes it from the store's index — holders of the Buffer
// keep reading it. Implementations must be safe for concurrent use.
type ResultStore interface {
	// Create makes (and indexes) the buffer for a new job ID.
	Create(id string) *Buffer
	// Get returns the buffer for id, if the store still indexes it.
	Get(id string) (*Buffer, bool)
	// Drop removes id from the index (a no-op for unknown IDs).
	Drop(id string)
	// Len returns the number of indexed buffers.
	Len() int
}

// Buffer is one job's append-only result buffer. It keeps each record
// as its encoded NDJSON line, in completion order, readable from any
// offset until the store drops the buffer: the bytes every stream
// writes and, in a DiskStore, the record frames' payload. It is safe
// for concurrent use, and a Results call after Append returns observes
// the appended records.
type Buffer struct {
	// mu guards every field and is held across each segment write (and
	// fsync), so frames never interleave.
	mu     sync.Mutex
	lines  [][]byte
	errors int
	cached int
	bytes  int64

	store *DiskStore // nil for the in-process store
	f     *os.File   // nil when memory-only: in-process, dropped or closed
	size  int64      // bytes of the segment file, recovered plus written
	meta  []byte     // last metadata frame recovered from the segment
}

// encodeLine renders one record as its NDJSON line: the bytes
// json.Encoder.Encode writes for it.
func encodeLine(rec api.JobResult) []byte { return append(mustJSON(rec), '\n') }

// Append adds a group of records, in order, as one step. Each record
// is encoded once, before the lock is taken; a durable buffer then
// writes the group's record frames back to back in one write with one
// fsync. A crash mid-write leaves a prefix of the group in the
// segment, and recovery keeps that prefix.
func (b *Buffer) Append(recs ...api.JobResult) {
	if len(recs) == 0 {
		return
	}
	lines := make([][]byte, len(recs))
	var frames []byte
	oversized := false // a record past the frame limit stays in memory only
	for i, rec := range recs {
		lines[i] = encodeLine(rec)
		if b.store != nil {
			var err error
			if frames, err = appendFrame(frames, opRecord, lines[i][:len(lines[i])-1]); err != nil {
				oversized = true
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, rec := range recs {
		b.addLocked(lines[i], rec.Error != "", rec.Cached)
	}
	if b.f == nil {
		return
	}
	//dms:lockok b.mu is the segment's append serialization point; frames must not interleave
	if err := b.appendFramesLocked(frames); err != nil || oversized {
		b.store.noteIOErr()
	}
}

// addLocked accounts one encoded record. Callers hold b.mu or are
// single-threaded (recovery).
func (b *Buffer) addLocked(line []byte, failed, cached bool) {
	b.lines = append(b.lines, line)
	b.bytes += int64(len(line))
	if failed {
		b.errors++
	}
	if cached {
		b.cached++
	}
}

// Results returns the buffered lines from offset from; an offset
// beyond the buffer yields nil. The lines are shared: callers must not
// modify them.
func (b *Buffer) Results(from int) [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	from = max(from, 0)
	if from >= len(b.lines) {
		return nil
	}
	return append([][]byte(nil), b.lines[from:]...)
}

// Stats snapshots the buffer's counters.
func (b *Buffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{Results: len(b.lines), Errors: b.errors, Cached: b.cached, Bytes: b.bytes}
}

// memStore is the in-process ResultStore: one map, one lock.
type memStore struct {
	mu   sync.Mutex
	byID map[string]*Buffer
}

// NewMemStore returns the in-process ResultStore implementation.
func NewMemStore() ResultStore {
	return &memStore{byID: make(map[string]*Buffer)}
}

func (s *memStore) Create(id string) *Buffer {
	b := &Buffer{}
	s.mu.Lock()
	s.byID[id] = b
	s.mu.Unlock()
	return b
}

func (s *memStore) Get(id string) (*Buffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.byID[id]
	return b, ok
}

func (s *memStore) Drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, id)
}

func (s *memStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
