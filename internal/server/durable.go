package server

// Durable control-plane state: a server opened with Options.DataDir
// keeps its unit queue in a write-ahead log and its job result buffers
// in disk segments (internal/jobs), and on startup reconciles the two
// into resumed, completed, or abandoned jobs. Leases are deliberately
// not durable — a restart forgets who held what, and every logged,
// unacked unit replays as pending in its original FIFO order.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	api "repro/api/v1"
	"repro/internal/jobs"
)

// durableState bundles the disk-backed store and queue with the
// recovery counters the metrics endpoint reports.
type durableState struct {
	store *jobs.DiskStore
	wal   *jobs.WALQueue

	recoveredTasks   int // queue tasks replayed from the WAL
	recoveredBuffers int // result buffers rebuilt from segments
}

// openDurable opens (or creates) the durable state under dir. The
// result segments and the queue WAL live in separate subdirectories so
// neither scan has to classify the other's files.
func openDurable(dir string, fsync bool) (*durableState, error) {
	store, err := jobs.NewDiskStore(filepath.Join(dir, "results"), fsync)
	if err != nil {
		return nil, fmt.Errorf("server: open result store: %w", err)
	}
	wal, err := jobs.NewWALQueue(jobs.NewMemQueue(), filepath.Join(dir, "queue"), jobs.WALOptions{
		Sync:   fsync,
		Encode: encodeUnitPayload,
		Decode: decodeUnitPayload,
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("server: open queue wal: %w", err)
	}
	return &durableState{store: store, wal: wal}, nil
}

func (d *durableState) close() {
	d.wal.Close()
	d.store.Close()
}

// recoverDurable reconciles the replayed queue with the recovered
// result buffers, job by job:
//
//   - every result index already covered by the buffer is settled — a
//     queued unit for it (an ack whose log frame was lost) is withdrawn;
//   - a job whose buffer covers all n indices re-registers as done;
//   - a job whose queued units cover exactly the missing indices is
//     re-registered through engine.Recover and its units adopted by the
//     dispatcher, so pullers or workers finish it and clients keep
//     polling the same job ID;
//   - anything else — missing units, a buffer without its size metadata,
//     units whose job left no buffer — cannot be resumed faithfully and
//     is registered as canceled (or dropped) with an explanatory failure.
//
// It runs before the HTTP surface is serving and the pullers start, so
// nothing can race the classification.
func (s *Server) recoverDurable() {
	d := s.durable
	tasks := d.wal.Recovered()
	d.recoveredTasks = len(tasks)
	d.recoveredBuffers = len(d.store.RecoveredIDs())

	byJob := make(map[string][]adoptedUnit)
	for _, t := range tasks {
		jobID, index, ok := splitUnitID(t.ID)
		wire, isWire := t.Payload.(api.WorkUnit)
		if !ok || !isWire {
			d.wal.Withdraw(t.ID) // not a unit this server wrote
			continue
		}
		byJob[jobID] = append(byJob[jobID], adoptedUnit{ID: t.ID, Index: index, Wire: wire})
	}

	for _, jobID := range d.store.RecoveredIDs() {
		units := byJob[jobID]
		delete(byJob, jobID)
		n := 0
		if meta, ok := d.store.Meta(jobID); ok {
			var bm jobs.BufferMeta
			if json.Unmarshal(meta, &bm) == nil {
				n = bm.N
			}
		}
		if n <= 0 {
			// A crash between buffer creation and the size record: the
			// batch size is unknowable, so nothing can be promised about
			// completeness. Drop the fragment.
			for _, u := range units {
				d.wal.Withdraw(u.ID)
			}
			d.store.Drop(jobID)
			continue
		}
		s.recoverJob(jobID, n, units)
	}

	// Units whose job left no buffer at all (the segment never synced):
	// without the buffer there is no job resource to resume.
	//dms:orderok withdraw-only sweep: each leftover unit is dropped independently
	for _, units := range byJob {
		for _, u := range units {
			d.wal.Withdraw(u.ID)
		}
	}
}

// recoverJob classifies one job with a known batch size n against its
// recovered buffer and queued units.
func (s *Server) recoverJob(jobID string, n int, units []adoptedUnit) {
	covered := make(map[int]bool)
	if buf, ok := s.durable.store.Get(jobID); ok {
		for _, rec := range buf.Results(0) {
			covered[rec.Index] = true
		}
	}
	missing := make(map[int]bool)
	for i := 0; i < n; i++ {
		if !covered[i] {
			missing[i] = true
		}
	}
	var adopt []adoptedUnit
	for _, u := range units {
		if missing[u.Index] {
			adopt = append(adopt, u)
			delete(missing, u.Index) // a duplicate for the index is redundant
		} else {
			s.durable.wal.Withdraw(u.ID) // already resolved (or out of range)
		}
	}
	switch {
	case len(covered) >= n:
		s.engine.RecoverFinished(jobID, n, api.JobDone, "")
	case len(missing) == 0:
		// Recover fails only for an ID registered twice, which the
		// store's one buffer per job rules out; units left without a
		// job would be acked off the queue when leased.
		if j, err := s.engine.Recover(jobID, n); err == nil {
			s.dispatch.adopt(j, adopt)
		}
	default:
		for _, u := range adopt {
			s.durable.wal.Withdraw(u.ID)
		}
		s.engine.RecoverFinished(jobID, n, api.JobCanceled,
			"batch incomplete after coordinator restart: queued units lost")
	}
}

// splitUnitID splits a dispatched unit ID "<jobID>/<index>" back into
// its parts.
func splitUnitID(id string) (jobID string, index int, ok bool) {
	i := strings.LastIndexByte(id, '/')
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return id[:i], n, true
}

// encodeUnitPayload renders a queued unit for the WAL as its wire form
// — exactly what a worker would receive, so a recovered task is
// self-contained.
func encodeUnitPayload(payload any) ([]byte, error) {
	switch v := payload.(type) {
	case *unit:
		return json.Marshal(v.wireForm())
	case api.WorkUnit:
		return json.Marshal(v)
	}
	return nil, fmt.Errorf("server: unloggable queue payload %T", payload)
}

// decodeUnitPayload is the inverse: replayed tasks carry api.WorkUnit
// values, which dispatcher adoption rebinds to live units.
func decodeUnitPayload(data []byte) (any, error) {
	var u api.WorkUnit
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, err
	}
	return u, nil
}
