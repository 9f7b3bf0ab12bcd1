package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// WALOptions configures a WALQueue.
type WALOptions struct {
	// Sync fsyncs the log after every logged mutation. Without it the
	// OS page cache decides when frames hit disk — a machine crash can
	// lose the newest enqueues/acks (a process crash alone cannot).
	Sync bool
	// Encode serializes a task payload for the log; Decode rebuilds it
	// on recovery. Both default to encoding/json, which round-trips a
	// nil payload and plain data; callers whose payloads are live
	// object graphs (the coordinator's compile units) supply a pair
	// that maps payload ↔ wire form.
	Encode func(payload any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// WALQueue decorates a Queue with a write-ahead log so admitted work
// survives a coordinator crash. Every Enqueue, Ack and Withdraw is
// logged — one write (and, with Sync, one fsync) per call, however many
// tasks the call covers; leases deliberately are NOT — a lease is a
// liveness fact about a worker, and after a restart no such fact
// deserves trust. On open the log (snapshot + tail) replays every
// logged-but-unacked task into the inner queue as pending, in original
// FIFO admission order, so in-flight work simply re-leases.
//
// The log is two files in dir: snapshot.wal (the compacted prefix: one
// enqueue frame per live task) and log.wal (the mutation tail).
// Compaction rewrites the snapshot atomically (write temp, fsync,
// rename) and truncates the tail once dead entries dominate, bounding
// the log to O(live tasks). Torn tails from a crash mid-append are
// truncated on open, frame checksums rejecting partial writes.
type WALQueue struct {
	inner Queue
	dir   string
	opt   WALOptions

	// mu orders logged mutations with their log frames; pure
	// passthroughs (Lease, Heartbeat, Expire, ...) skip it and hit the
	// inner queue's own lock directly.
	mu        sync.Mutex
	log       *os.File
	logBytes  int64
	snapBytes int64
	order     []*walTask // admission order; acked entries tombstoned
	live      map[string]*walTask
	recovered []Task
}

// WAL frame ops.
const (
	opWALEnqueue  = 'E' // payload: walRecord JSON
	opWALAck      = 'A' // payload: raw task ID
	opWALRemove   = 'W' // payload: raw task ID (withdraw)
	opWALAckBatch = 'B' // payload: JSON array of task IDs (one batched ack)
)

const (
	walSnapName = "snapshot.wal"
	walLogName  = "log.wal"
)

// walRecord is the logged form of one enqueued task.
type walRecord struct {
	ID      string `json:"id"`
	Hash    string `json:"hash,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// walTask is one admitted task's log state.
type walTask struct {
	rec  walRecord
	gone bool // acked/withdrawn
}

// NewWALQueue opens (creating if needed) a write-ahead log in dir
// around inner, replaying any unacked tasks from a previous process
// into it. The decorator satisfies the full Queue contract (the
// conformance suite runs against it); Recovered reports what replay
// restored.
//
//dms:ctxok synchronous local-disk open/replay, run once at process start
func NewWALQueue(inner Queue, dir string, opt WALOptions) (*WALQueue, error) {
	if opt.Encode == nil {
		opt.Encode = func(payload any) ([]byte, error) { return json.Marshal(payload) }
	}
	if opt.Decode == nil {
		opt.Decode = func(data []byte) (any, error) {
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WALQueue{inner: inner, dir: dir, opt: opt, live: make(map[string]*walTask)}
	if err := w.replayFile(filepath.Join(dir, walSnapName)); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(dir, walLogName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.log = log
	valid, err := scanFrames(log, w.applyFrame)
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := truncateTorn(log, valid); err != nil {
		log.Close()
		return nil, err
	}
	w.logBytes = valid

	// Replay the survivors into the inner queue in admission order,
	// then compact: the rewritten snapshot is the recovered state, so
	// the next open replays exactly what this one did plus whatever
	// happens after.
	for _, wt := range w.order {
		if wt.gone {
			continue
		}
		payload, err := w.opt.Decode(wt.rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("jobs: wal task %s: decode payload: %w", wt.rec.ID, err)
		}
		w.recovered = append(w.recovered, Task{ID: wt.rec.ID, Hash: wt.rec.Hash, Payload: payload})
	}
	if err := inner.Enqueue(w.recovered...); err != nil {
		return nil, fmt.Errorf("jobs: wal replay enqueue: %w", err)
	}
	if err := w.compactLocked(); err != nil {
		log.Close()
		return nil, err
	}
	return w, nil
}

// replayFile loads one log file's frames (missing file: no-op).
func (w *WALQueue) replayFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	// The snapshot was written atomically, but truncate-at-torn still
	// applies: a crash between snapshot rename and log truncate cannot
	// happen (rename is last), so a torn snapshot means external
	// corruption — salvage the intact prefix.
	_, err = scanFrames(f, w.applyFrame)
	return err
}

// applyFrame folds one log frame into the in-memory admission state.
func (w *WALQueue) applyFrame(op byte, payload []byte) error {
	switch op {
	case opWALEnqueue:
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("jobs: wal enqueue frame: %w", err)
		}
		if old, ok := w.live[rec.ID]; ok {
			old.gone = true // re-admission after removal: newest wins
		}
		wt := &walTask{rec: rec}
		w.order = append(w.order, wt)
		w.live[rec.ID] = wt
	case opWALAck, opWALRemove:
		if wt, ok := w.live[string(payload)]; ok {
			wt.gone = true
			delete(w.live, string(payload))
		}
	case opWALAckBatch:
		var ids []string
		if err := json.Unmarshal(payload, &ids); err != nil {
			return fmt.Errorf("jobs: wal ack-batch frame: %w", err)
		}
		for _, id := range ids {
			if wt, ok := w.live[id]; ok {
				wt.gone = true
				delete(w.live, id)
			}
		}
	}
	return nil
}

// logFrame appends one frame to the mutation tail. Requires w.mu.
func (w *WALQueue) logFrame(op byte, payload []byte) error {
	frame, err := appendFrame(nil, op, payload)
	if err != nil {
		return err
	}
	return w.logFrames(frame)
}

// logFrames appends pre-encoded frames to the mutation tail in one
// write, fsyncing once under the sync policy. Requires w.mu.
func (w *WALQueue) logFrames(frames []byte) error {
	n, err := w.log.Write(frames)
	w.logBytes += int64(n)
	if err != nil {
		return err
	}
	if w.opt.Sync {
		return w.log.Sync()
	}
	return nil
}

// compactLocked rewrites the snapshot to exactly the live tasks (in
// admission order) and truncates the mutation tail. Requires w.mu.
func (w *WALQueue) compactLocked() error {
	tmp := filepath.Join(w.dir, walSnapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var snap []byte
	kept := make([]*walTask, 0, len(w.live))
	for _, wt := range w.order {
		if wt.gone {
			continue
		}
		kept = append(kept, wt)
		if snap, err = appendFrame(snap, opWALEnqueue, mustJSON(wt.rec)); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if _, err := f.Write(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, walSnapName)); err != nil {
		os.Remove(tmp)
		return err
	}
	// The snapshot now carries every live task; the tail restarts
	// empty. Order of these two writes matters: with the rename done,
	// a crash before the truncate merely replays tail mutations that
	// the snapshot already folded in — which applyFrame tolerates.
	if err := w.log.Truncate(0); err != nil {
		return err
	}
	if _, err := w.log.Seek(0, 0); err != nil {
		return err
	}
	w.logBytes = 0
	w.snapBytes = int64(len(snap))
	w.order = kept
	return nil
}

// maybeCompactLocked compacts once tombstones dominate the admission
// list (plus a floor so small queues never bother). Requires w.mu.
func (w *WALQueue) maybeCompactLocked() {
	const floor = 256
	if dead := len(w.order) - len(w.live); dead > floor && dead > len(w.live) {
		w.compactLocked() // best-effort; an I/O error keeps the longer log
	}
}

// Enqueue admits the group through the inner queue and logs it as
// the group's enqueue frames, back to back in one write. The payloads
// are encoded before the lock is taken. A crash mid-write leaves a
// prefix of the group logged; recovery replays that prefix.
func (w *WALQueue) Enqueue(ts ...Task) error {
	if len(ts) == 0 {
		return nil
	}
	recs := make([]walRecord, len(ts))
	var frames []byte
	for i, t := range ts {
		payload, err := w.opt.Encode(t.Payload)
		if err != nil {
			return fmt.Errorf("jobs: wal encode payload for %s: %w", t.ID, err)
		}
		recs[i] = walRecord{ID: t.ID, Hash: t.Hash, Payload: payload}
		// An oversized frame is left out of the group: its task is
		// admitted all the same and only loses durability, as it would
		// to a failed write.
		frames, _ = appendFrame(frames, opWALEnqueue, mustJSON(recs[i]))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.inner.Enqueue(ts...); err != nil {
		return err
	}
	for _, rec := range recs {
		wt := &walTask{rec: rec}
		w.order = append(w.order, wt)
		w.live[rec.ID] = wt
	}
	// The tasks are admitted either way; losing the write only costs
	// the group's durability.
	w.logFrames(frames) //dms:lockok w.mu is the WAL serialization point; frames must match queue-op order
	return nil
}

func (w *WALQueue) Ack(lease, taskID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.inner.Ack(lease, taskID) {
		return false
	}
	w.removeLocked(opWALAck, taskID) //dms:lockok w.mu is the WAL serialization point; frames must match queue-op order
	return true
}

// AckBatch resolves a whole posted results frame in one WAL write: the
// inner queue acks the batch atomically, and every task it actually
// owned is tombstoned under a single 'B' frame (one fsync per post
// instead of one per unit). Per-task semantics match Ack exactly — a
// task lost to expiry stays in the log for the next recovery.
func (w *WALQueue) AckBatch(lease string, taskIDs []string) []bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	acked := w.inner.AckBatch(lease, taskIDs)
	resolved := make([]string, 0, len(taskIDs))
	for i, ok := range acked {
		if !ok {
			continue
		}
		id := taskIDs[i]
		resolved = append(resolved, id)
		if wt, live := w.live[id]; live {
			wt.gone = true
			delete(w.live, id)
		}
	}
	if len(resolved) > 0 {
		w.logFrame(opWALAckBatch, mustJSON(resolved)) //dms:lockok w.mu is the WAL serialization point; frames must match queue-op order
		w.maybeCompactLocked()
	}
	return acked
}

func (w *WALQueue) Withdraw(taskID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.inner.Withdraw(taskID) {
		return false
	}
	w.removeLocked(opWALRemove, taskID) //dms:lockok w.mu is the WAL serialization point; frames must match queue-op order
	return true
}

// removeLocked tombstones a resolved task and logs its removal.
// Requires w.mu.
func (w *WALQueue) removeLocked(op byte, taskID string) {
	if wt, ok := w.live[taskID]; ok {
		wt.gone = true
		delete(w.live, taskID)
	}
	w.logFrame(op, []byte(taskID)) // best-effort, see Enqueue
	w.maybeCompactLocked()
}

// The remaining Queue methods are pure passthroughs: leases,
// heartbeats and expiry requeues are liveness state, deliberately
// unlogged.

func (w *WALQueue) Lease(owner string, max int, ttl time.Duration) (string, []Task) {
	return w.inner.Lease(owner, max, ttl)
}

func (w *WALQueue) LeaseFiltered(owner string, max int, ttl time.Duration, eligible func(Task) bool) (string, []Task) {
	return w.inner.LeaseFiltered(owner, max, ttl, eligible)
}

func (w *WALQueue) Heartbeat(lease string) bool { return w.inner.Heartbeat(lease) }

func (w *WALQueue) Held(lease string) (string, []Task) { return w.inner.Held(lease) }

func (w *WALQueue) Expire(now time.Time) int { return w.inner.Expire(now) }

func (w *WALQueue) Changed() <-chan struct{} { return w.inner.Changed() }

func (w *WALQueue) Stats() QueueStats { return w.inner.Stats() }

// Recovered returns the tasks replayed into the inner queue when the
// log was opened, in their original FIFO admission order.
func (w *WALQueue) Recovered() []Task {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Task(nil), w.recovered...)
}

// WALBytes reports the current on-disk size of the log
// (snapshot + mutation tail).
func (w *WALQueue) WALBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapBytes + w.logBytes
}

// Close compacts and closes the log files. The inner queue is
// untouched — callers own its lifecycle.
func (w *WALQueue) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log == nil {
		return nil
	}
	err := w.compactLocked() //dms:lockok final compaction: w.mu orders it against any late queue ops
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	w.log = nil
	return err
}
