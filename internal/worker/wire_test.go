package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/worker"
	"repro/pkg/dmsclient"
)

// configOf renders m as the config a coordinator's wire unit carries.
func configOf(t *testing.T, m *machine.Machine) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLeaseSharesMachines pins the machine sharing LeaseJobs relies
// on, under -race in CI: one worker at Parallelism 4 compiles leases
// whose units share one memoized *machine.Machine (and, where loop
// texts repeat, one *loop.Loop), and every result is byte-identical to
// direct driver.CompileAll. The second lease mixes two machines and a
// unit whose config describes no valid machine, which fails alone.
func TestLeaseSharesMachines(t *testing.T) {
	var texts []string
	for _, text := range goldenLoops(t) {
		l, err := loop.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, loop.Format(l))
	}
	texts = append(texts, texts[0]) // a repeated loop shares one parse
	clustered := configOf(t, machine.Clustered(4))
	unclustered := configOf(t, machine.Unclustered(2))
	const bad = "bad-config"

	shared := []json.RawMessage{clustered}
	mixed := []json.RawMessage{clustered, unclustered}
	for _, c := range []struct {
		name    string
		configs []json.RawMessage
		bad     bool
	}{
		{"one machine", shared, false},
		{"two machines and a malformed config", mixed, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var units []api.WorkUnit
			for i, text := range texts {
				// Each unit carries its own copy of the config, as a
				// decoded lease does.
				cfg := append(json.RawMessage(nil), c.configs[i%len(c.configs)]...)
				units = append(units, api.WorkUnit{ID: "u" + string(rune('a'+i)), Hash: "h", Loop: text,
					Machine: api.MachineSpec{Config: cfg}, Scheduler: "dms"})
			}
			if c.bad {
				units = append(units, api.WorkUnit{ID: bad, Hash: "h", Loop: texts[0],
					Machine: api.MachineSpec{Config: json.RawMessage(`{"name":"broken","clusters":0}`)}, Scheduler: "dms"})
			}

			// LeaseJobs builds each distinct machine once.
			leased := server.LeaseJobs(units)
			byConfig := map[string]*machine.Machine{}
			for i, lj := range leased {
				if units[i].ID == bad {
					if lj.Err == nil || !strings.Contains(lj.Err.Error(), "bad machine") {
						t.Fatalf("malformed config assembled: %+v", lj)
					}
					continue
				}
				if lj.Err != nil {
					t.Fatalf("unit %s: %v", units[i].ID, lj.Err)
				}
				cfg := string(units[i].Machine.Config)
				if m, ok := byConfig[cfg]; ok && m != lj.Job.Machine {
					t.Fatalf("unit %s built its own machine for a config the lease already built", units[i].ID)
				}
				byConfig[cfg] = lj.Job.Machine
				if want := server.JobKey(lj.Job); lj.Key != want {
					t.Fatalf("unit %s keyed %s, JobKey %s", units[i].ID, lj.Key, want)
				}
			}
			if len(byConfig) != len(c.configs) {
				t.Fatalf("lease built %d machines, want %d", len(byConfig), len(c.configs))
			}
			if leased[0].Job.Loop != leased[len(texts)-1].Job.Loop {
				t.Fatal("a repeated loop text was parsed twice")
			}

			// Direct reference: one job per good unit, each with its own
			// machine and loop, built alone.
			var jobs []driver.Job
			for _, u := range units {
				if u.ID == bad {
					continue
				}
				lj := server.LeaseJobs([]api.WorkUnit{u})[0]
				if lj.Err != nil {
					t.Fatal(lj.Err)
				}
				jobs = append(jobs, lj.Job)
			}
			want := map[string]string{}
			for i, res := range driver.CompileAll(context.Background(), jobs, driver.BatchOptions{}) {
				if res.Err != nil {
					t.Fatalf("direct %s: %v", res.Job, res.Err)
				}
				want[units[i].ID] = marshal(t, server.Record(res))
			}

			fake := &fakeLeaseCoordinator{
				t:        t,
				lease:    api.Lease{ID: "lease-" + strings.ReplaceAll(c.name, " ", "-"), Units: units, TTLMS: 60_000},
				resolved: map[string]bool{},
			}
			ts := httptest.NewServer(fake.handler())
			t.Cleanup(ts.Close)
			stop := startWorker(t, ts.URL, worker.Options{ID: "sharer", Parallelism: 4})
			fake.waitResolved(t, len(units))
			stop()

			fake.mu.Lock()
			defer fake.mu.Unlock()
			for _, batch := range fake.resultPosts {
				for _, ur := range batch {
					if ur.Unit == bad {
						if ur.Result.ErrorCode != api.CodeInternal || !strings.Contains(ur.Result.Error, "bad machine") {
							t.Errorf("malformed unit posted %+v, want an internal bad-machine error", ur.Result)
						}
						continue
					}
					// The repeated loop is a worker-cache hit; Cached
					// reports provenance, not schedule content.
					ur.Result.Cached = false
					if got := marshal(t, ur.Result); got != want[ur.Unit] {
						t.Errorf("unit %s diverges from direct CompileAll:\n got %s\nwant %s", ur.Unit, got, want[ur.Unit])
					}
				}
			}
		})
	}
}

// bodyRecorder wraps a coordinator handler and keeps every lease
// response body it writes and every results body a worker posts.
type bodyRecorder struct {
	inner http.Handler

	mu     sync.Mutex
	leases [][]byte
	posts  [][]byte
}

func (p *bodyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == api.PathWorkersLease:
		rec := httptest.NewRecorder()
		p.inner.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		if rec.Code == http.StatusOK {
			p.mu.Lock()
			p.leases = append(p.leases, rec.Body.Bytes())
			p.mu.Unlock()
		}
	case strings.HasSuffix(r.URL.Path, "/results"):
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.posts = append(p.posts, body)
		p.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		p.inner.ServeHTTP(w, r)
	default:
		p.inner.ServeHTTP(w, r)
	}
}

// TestWorkerWireBodiesMatchMarshal: the codec changed how the
// worker-pull bodies are written, not what they say. Over a real
// coordinator–worker drain, every lease body the coordinator writes is
// json.Marshal of the lease it decodes to (plus the newline every JSON
// response ends with), and every results body the worker posts is
// json.Marshal of the request it decodes to. The drain's results are
// byte-identical to direct driver.CompileAll.
func TestWorkerWireBodiesMatchMarshal(t *testing.T) {
	svc, err := server.Open(server.Options{Distribute: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	proxy := &bodyRecorder{inner: svc.Handler()}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	startWorker(t, ts.URL, worker.Options{ID: "recorded", Parallelism: 2})

	req := api.CompileRequest{
		Loops:      goldenLoops(t),
		Machines:   []api.MachineSpec{{Clusters: 2}, {Clusters: 4}},
		Schedulers: []string{"dms", "twophase"},
		TimeoutMS:  60_000,
		NoCache:    true,
	}
	want := directRecords(t, req, []*machine.Machine{machine.Clustered(2), machine.Clustered(4)})
	got, _, err := dmsclient.New(ts.URL).CompileAll(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareRecords(t, got, want)

	proxy.mu.Lock()
	defer proxy.mu.Unlock()
	units := 0
	for _, body := range proxy.leases {
		var l api.Lease
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatalf("lease body %s: %v", body, err)
		}
		want, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("lease body differs from json.Marshal:\n got %s\nwant %s", body, want)
		}
		units += len(l.Units)
	}
	if units < req.Jobs() {
		t.Fatalf("recorded leases carried %d units, want at least %d", units, req.Jobs())
	}
	results := 0
	for _, body := range proxy.posts {
		var r api.WorkResultsRequest
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("results body %s: %v", body, err)
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("results body differs from json.Marshal:\n got %s\nwant %s", body, want)
		}
		results += len(r.Results)
	}
	if results < req.Jobs() {
		t.Fatalf("recorded posts carried %d results, want at least %d", results, req.Jobs())
	}
}
