package server

// Durable control-plane state: a server opened with Options.DataDir
// keeps one log per batch, the job's result segment (internal/jobs
// DiskStore). The segment's first metadata frame is the batch record —
// the batch's request — written before the submit answers; each result
// appends a record frame, and a client cancel appends a terminal
// metadata frame. A unit is pending while its index has no record, so
// on startup recovery rebuilds every unfinished batch's pending units
// from its request and queues them again, through the path a submit
// takes. The unit queue itself lives in memory, and leases are
// deliberately not durable: a restart forgets who held what.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	api "repro/api/v1"
	"repro/internal/jobs"
)

// durableState bundles the disk-backed result store with the recovery
// counters the metrics endpoint reports.
type durableState struct {
	store *jobs.DiskStore

	recoveredTasks   int // units queued again from batch records
	recoveredBuffers int // result buffers rebuilt from segments
}

// batchRecord is a segment's metadata frame. The record written at
// submit carries the request and the admission time recovery orders
// batches by; the terminal one a cancel appends carries the state. A
// record with neither (only n) was written by a format whose units
// lived outside the segment; its pending units cannot be rebuilt.
type batchRecord struct {
	N              int                 `json:"n"`
	Request        *api.CompileRequest `json:"request,omitempty"`
	AdmittedUnixNS int64               `json:"admitted_unix_ns,omitempty"`
	State          api.JobState        `json:"state,omitempty"`
}

// encodeBatchRecord renders the record of a batch of n units for its
// segment: the validated request with its effective timeout, stamped
// with the current time. A record past one frame is refused, so no
// batch is admitted that could not be recovered.
func encodeBatchRecord(req api.CompileRequest, n int, timeout time.Duration) ([]byte, error) {
	req.TimeoutMS = int(timeout / time.Millisecond)
	rec, err := json.Marshal(batchRecord{N: n, Request: &req, AdmittedUnixNS: time.Now().UnixNano()})
	if err != nil {
		return nil, err
	}
	if len(rec) > jobs.MaxMetaBytes {
		return nil, fmt.Errorf("batch record of %d bytes exceeds the durable limit of %d", len(rec), jobs.MaxMetaBytes)
	}
	return rec, nil
}

// recordCanceled appends a canceled job's terminal record, synced
// under the store's policy; a job whose segment is gone needs none.
func (d *durableState) recordCanceled(j *jobs.Job) {
	rec, _ := json.Marshal(batchRecord{N: j.N(), State: api.JobCanceled})
	d.store.SetMeta(j.ID(), rec)
}

// recoverDurable re-registers every job a previous process left in the
// data dir, each from its segment's last record:
//
//   - a job canceled by its client re-registers as canceled;
//   - a job whose records cover all n indices re-registers as done;
//   - a job whose record carries no request re-registers as canceled:
//     its pending units cannot be rebuilt;
//   - any other job re-registers through engine.Recover, and its pending
//     units — the indices with no record — are rebuilt from the request
//     and queued;
//   - a segment with no record describes a batch of unknowable size and
//     is dropped.
//
// Jobs are recovered in admission order, so an older interrupted batch
// queues ahead of a newer one; records without an admission time go
// first, in ID order. Recovery runs before the HTTP surface serves and
// the pullers start, and every recovered unit is queued before it
// returns.
func (s *Server) recoverDurable() {
	d := s.durable
	ids := d.store.RecoveredIDs()
	d.recoveredBuffers = len(ids)
	type recovered struct {
		id  string
		rec batchRecord
	}
	var found []recovered
	for _, id := range ids {
		var rec batchRecord
		if meta, ok := d.store.Meta(id); !ok || json.Unmarshal(meta, &rec) != nil || rec.N <= 0 {
			d.store.Drop(id)
			continue
		}
		found = append(found, recovered{id, rec})
	}
	slices.SortFunc(found, func(a, b recovered) int {
		return cmp.Or(cmp.Compare(a.rec.AdmittedUnixNS, b.rec.AdmittedUnixNS), strings.Compare(a.id, b.id))
	})
	for _, r := range found {
		s.recoverJob(r.id, r.rec)
	}
}

// recoverJob classifies one job against its record and its recovered
// result records.
func (s *Server) recoverJob(id string, rec batchRecord) {
	done := make([]bool, rec.N)
	pending := rec.N
	if buf, ok := s.durable.store.Get(id); ok {
		for _, line := range buf.Results(0) {
			r, _, err := api.DecodeStreamLine(line)
			if err == nil && r != nil && r.Index >= 0 && r.Index < rec.N && !done[r.Index] {
				done[r.Index] = true
				pending--
			}
		}
	}
	switch {
	case rec.State == api.JobCanceled:
		s.engine.RecoverFinished(id, rec.N, api.JobCanceled, "")
		return
	case pending == 0:
		s.engine.RecoverFinished(id, rec.N, api.JobDone, "")
		return
	case rec.Request == nil:
		s.engine.RecoverFinished(id, rec.N, api.JobCanceled,
			"batch incomplete after coordinator restart: queued units lost")
		return
	}
	jobList, err := s.buildJobs(rec.Request)
	if err == nil && len(jobList) != rec.N {
		err = fmt.Errorf("request builds %d units, record says %d", len(jobList), rec.N)
	}
	// Recover fails only for an ID registered twice, which the store's
	// one segment per job rules out.
	j, rerr := s.engine.Recover(id, rec.N)
	if rerr != nil {
		return
	}
	s.durable.recoveredTasks += s.dispatch.resume(j, jobList, done, pending, err, s.timeoutFor(rec.Request), rec.Request.NoCache)
}
