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
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/jobs"
)

// durableState bundles the disk-backed result store with the recovery
// counters the metrics endpoint reports.
type durableState struct {
	store *jobs.DiskStore

	recoveredTasks   int // units queued from batch records, plus units read from queue/
	recoveredBuffers int // result buffers rebuilt from segments
}

// batchRecord is a segment's metadata frame. The record written at
// submit carries the request and the admission time recovery orders
// batches by; the terminal one a cancel appends carries the state. A
// record with neither (only n) was written by the format whose units
// lived in queue/.
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
//   - any other job re-registers through engine.Recover, and its pending
//     units — the indices with no record — are rebuilt from the request
//     and queued;
//   - a segment with no record describes a batch of unknowable size and
//     is dropped.
//
// Jobs are recovered in admission order, so an older interrupted batch
// queues ahead of a newer one; records without an admission time go
// first, in ID order. The segments live under results/. A data dir of
// the previous format also holds queue/, the unit queue's write-ahead
// log: its units are read once for the jobs whose record carries no
// request, and the directory is removed. Recovery runs before the HTTP
// surface serves and the pullers start, and every recovered unit is
// queued before it returns.
func (s *Server) recoverDurable(dir string) error {
	d := s.durable
	ids := d.store.RecoveredIDs()
	d.recoveredBuffers = len(ids)
	queueDir := filepath.Join(dir, "queue")
	parentUnits, read, err := readParentQueue(queueDir)
	if err != nil {
		return err
	}
	d.recoveredTasks = read
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
		s.recoverJob(r.id, r.rec, parentUnits[r.id])
	}
	return os.RemoveAll(queueDir)
}

// recoverJob classifies one job against its record and its recovered
// result records. units are the job's queued units by index from a
// previous-format queue/, used only when the record carries no request.
func (s *Server) recoverJob(id string, rec batchRecord, units map[int]api.WorkUnit) {
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
	}
	var jobList []driver.Job
	var timeout time.Duration
	var noCache bool
	var err error
	if rec.Request != nil {
		jobList, err = s.buildJobs(rec.Request)
		if err == nil && len(jobList) != rec.N {
			err = fmt.Errorf("request builds %d units, record says %d", len(jobList), rec.N)
		}
		timeout, noCache = s.timeoutFor(rec.Request), rec.Request.NoCache
	} else if jobList, timeout, noCache, err = parentJobs(units, done); jobList == nil {
		s.engine.RecoverFinished(id, rec.N, api.JobCanceled,
			"batch incomplete after coordinator restart: queued units lost")
		return
	}
	// Recover fails only for an ID registered twice, which the store's
	// one segment per job rules out.
	j, rerr := s.engine.Recover(id, rec.N)
	if rerr != nil {
		return
	}
	queued := s.dispatch.resume(j, jobList, done, pending, err, timeout, noCache)
	if rec.Request != nil {
		s.durable.recoveredTasks += queued // queue/ units were counted as read
	}
}

// parentJobs rebuilds a previous-format job's pending units, the
// indices done leaves false, from their wire forms in queue/. It
// returns a nil jobList when a pending index has no queued unit.
func parentJobs(units map[int]api.WorkUnit, done []bool) (jobList []driver.Job, timeout time.Duration, noCache bool, err error) {
	jobList = make([]driver.Job, len(done))
	for i, ok := range done {
		if ok {
			continue
		}
		wire, queued := units[i]
		if !queued {
			return nil, 0, false, nil
		}
		if jobList[i], err = UnitJob(wire); err != nil {
			return jobList, 0, false, err
		}
		timeout, noCache = time.Duration(wire.TimeoutMS)*time.Millisecond, wire.NoCache
	}
	return jobList, timeout, noCache, nil
}

// readParentQueue reads the unit queue of a previous-format data dir,
// if dir exists, and returns its units by job ID and index (nil when
// there is no such directory) and how many it read.
func readParentQueue(dir string) (map[string]map[int]api.WorkUnit, int, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, 0, nil
	}
	wal, err := jobs.NewWALQueue(jobs.NewMemQueue(), dir, jobs.WALOptions{Decode: decodeUnitPayload})
	if err != nil {
		return nil, 0, fmt.Errorf("server: read queue wal: %w", err)
	}
	defer wal.Close()
	byJob := make(map[string]map[int]api.WorkUnit)
	tasks := wal.Recovered()
	for _, t := range tasks {
		jobID, index, ok := splitUnitID(t.ID)
		if !ok {
			continue // not a unit this server wrote
		}
		if byJob[jobID] == nil {
			byJob[jobID] = make(map[int]api.WorkUnit)
		}
		byJob[jobID][index] = t.Payload.(api.WorkUnit)
	}
	return byJob, len(tasks), nil
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

// decodeUnitPayload rebuilds a unit logged to queue/ as its wire form.
func decodeUnitPayload(data []byte) (any, error) {
	var u api.WorkUnit
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, err
	}
	return u, nil
}
