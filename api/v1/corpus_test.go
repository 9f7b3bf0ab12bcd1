package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/server"
)

// corpusRecords compiles the first loops of the pinned corpus with
// every registered scheduler, plus jobs that fail (an unknown
// scheduler, an unreachable II cap, an expired timeout), and renders
// each result as the server records it.
func corpusRecords(t *testing.T) []api.JobResult {
	t.Helper()
	loops := perfect.CorpusN(perfect.DefaultSeed, 12)
	var jobs []driver.Job
	for _, name := range driver.Default.Names() {
		s, err := driver.Default.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{2, 4} {
			m := driver.MachineFor(s, c)
			for _, l := range loops {
				jobs = append(jobs, driver.Job{Loop: l, Machine: m, Scheduler: name})
			}
		}
	}
	for _, l := range loops[:3] {
		jobs = append(jobs,
			driver.Job{Loop: l, Machine: machine.Clustered(2), Scheduler: "no-such-scheduler"},
			driver.Job{Loop: l, Machine: machine.Clustered(2), Scheduler: "dms", Options: driver.Options{MaxII: 1}})
	}
	results := driver.CompileAll(context.Background(), jobs, driver.BatchOptions{Parallelism: 2})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	results = append(results, driver.Compile(expired, jobs[0], driver.BatchOptions{}))
	recs := make([]api.JobResult, len(results))
	failed := 0
	for i, r := range results {
		recs[i] = server.Record(r)
		recs[i].Index = i
		recs[i].Cached = i%3 == 0
		if r.Err != nil {
			failed++
		}
	}
	if failed < 4 {
		t.Fatalf("only %d of the corpus jobs failed; the error records are not covered", failed)
	}
	return recs
}

// TestResultLineCorpus runs the codec over real records of every
// registered scheduler, errors included: each encodes to exactly
// json.Marshal's bytes plus '\n' and decodes back to itself.
func TestResultLineCorpus(t *testing.T) {
	var buf []byte
	for _, rec := range corpusRecords(t) {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		buf, err = api.AppendResultLine(buf[:0], &rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Job, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: AppendResultLine differs from json.Marshal:\n got %s\nwant %s", rec.Job, buf, want)
		}
		got, sum, err := api.DecodeStreamLine(buf)
		if err != nil || sum != nil || !reflect.DeepEqual(*got, rec) {
			t.Fatalf("%s: round trip gave %+v, %+v, %v; want %+v", rec.Job, got, sum, err, rec)
		}
	}
}
