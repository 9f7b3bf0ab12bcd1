package jobs

import (
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
	// Bytes approximates the buffer's heap footprint.
	Bytes int64
}

// Buffer is one job's append-only result buffer: records accumulate
// in completion order and stay readable from any offset until the
// store drops the buffer. Implementations must be safe for concurrent
// use; Append must be ordered with respect to Results (a Results call
// after Append returns observes the appended records).
type Buffer interface {
	// Append adds a group of records, in order, as one step: a durable
	// buffer writes the group in one write with one fsync.
	Append(recs ...api.JobResult)
	// Results copies the buffered records from offset from; an offset
	// beyond the buffer yields nil.
	Results(from int) []api.JobResult
	Stats() BufferStats
}

// ResultStore owns the per-job result buffers behind the engine: one
// append-only Buffer per job ID. The engine is the only writer of the
// ID space; a store never invents or rewrites buffers. Dropping a
// buffer removes it from the store's index — holders of the Buffer
// keep reading it. Implementations must be safe for concurrent use.
type ResultStore interface {
	// Create makes (and indexes) the buffer for a new job ID.
	Create(id string) Buffer
	// Get returns the buffer for id, if the store still indexes it.
	Get(id string) (Buffer, bool)
	// Drop removes id from the index (a no-op for unknown IDs).
	Drop(id string)
	// Len returns the number of indexed buffers.
	Len() int
}

// memBuffer is the in-process Buffer.
type memBuffer struct {
	mu     sync.Mutex
	recs   []api.JobResult
	errors int
	cached int
	bytes  int64
}

func (b *memBuffer) Append(recs ...api.JobResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, rec := range recs {
		b.applyLocked(rec)
	}
}

// applyLocked accounts one record in memory. Callers hold b.mu or are
// single-threaded (recovery).
func (b *memBuffer) applyLocked(rec api.JobResult) {
	b.recs = append(b.recs, rec)
	b.bytes += recSize(rec)
	if rec.Error != "" {
		b.errors++
	}
	if rec.Cached {
		b.cached++
	}
}

// recSize approximates one result's heap footprint: the variable-size
// strings plus a flat allowance for the fixed fields.
func recSize(rec api.JobResult) int64 {
	return int64(192 + len(rec.Job) + len(rec.Schedule) + len(rec.Error))
}

func (b *memBuffer) Results(from int) []api.JobResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(b.recs) {
		return nil
	}
	out := make([]api.JobResult, len(b.recs)-from)
	copy(out, b.recs[from:])
	return out
}

func (b *memBuffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{Results: len(b.recs), Errors: b.errors, Cached: b.cached, Bytes: b.bytes}
}

// memStore is the in-process ResultStore: one map, one lock.
type memStore struct {
	mu   sync.Mutex
	byID map[string]*memBuffer
}

// NewMemStore returns the in-process ResultStore implementation.
func NewMemStore() ResultStore {
	return &memStore{byID: make(map[string]*memBuffer)}
}

func (s *memStore) Create(id string) Buffer {
	b := &memBuffer{}
	s.mu.Lock()
	s.byID[id] = b
	s.mu.Unlock()
	return b
}

func (s *memStore) Get(id string) (Buffer, bool) {
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
