package jobs

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func openWALQueue(t *testing.T, dir string) *WALQueue {
	t.Helper()
	w, err := NewWALQueue(NewMemQueue(), dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWALQueueRecovery is the point of the WAL: everything admitted
// and not yet acked — pending or leased, it makes no difference —
// replays as pending in original FIFO order after a restart, and
// everything resolved stays resolved.
func TestWALQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	w1 := openWALQueue(t, dir)
	for i := 0; i < 6; i++ {
		task := Task{ID: fmt.Sprintf("t%d", i), Hash: fmt.Sprintf("h%d", i%2), Payload: map[string]any{"i": float64(i)}}
		if err := w1.Enqueue(task); err != nil {
			t.Fatal(err)
		}
	}
	// t0, t1 leased; t0 acked (resolved for good), t1 left in flight.
	lease, tasks := w1.Lease("worker", 2, time.Minute)
	if len(tasks) != 2 {
		t.Fatalf("leased %v", tasks)
	}
	if !w1.Ack(lease, "t0") {
		t.Fatal("ack refused")
	}
	// t2 withdrawn (canceled), t3..t5 stay pending.
	if !w1.Withdraw("t2") {
		t.Fatal("withdraw refused")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWALQueue(t, dir)
	rec := w2.Recovered()
	want := []string{"t1", "t3", "t4", "t5"}
	if len(rec) != len(want) {
		t.Fatalf("recovered %d tasks, want %d (%v)", len(rec), len(want), rec)
	}
	for i, task := range rec {
		if task.ID != want[i] {
			t.Fatalf("recovered order[%d] = %s, want %s", i, task.ID, want[i])
		}
	}
	// Payloads round-trip through the default JSON codec.
	if m, ok := rec[1].Payload.(map[string]any); !ok || m["i"] != float64(3) {
		t.Fatalf("t3 payload did not round-trip: %#v", rec[1].Payload)
	}
	// The replayed tasks are genuinely pending in the inner queue, in
	// order, with their hashes intact.
	_, tasks = w2.Lease("other", 10, 0)
	if len(tasks) != 4 || tasks[0].ID != "t1" || tasks[3].ID != "t5" {
		t.Fatalf("post-recovery lease = %v", ids(tasks))
	}
	if tasks[0].Hash != "h1" {
		t.Fatalf("t1 hash lost: %q", tasks[0].Hash)
	}
	if w2.WALBytes() <= 0 {
		t.Fatal("WALBytes = 0 with four live tasks logged")
	}
}

// TestWALQueueAckBatchReplay pins the batched-ack frame: one AckBatch
// writes one 'B' frame covering every resolved task, and a restart
// over that log replays none of them — while elements the batch failed
// to ack (unknown IDs) replay as live work.
func TestWALQueueAckBatchReplay(t *testing.T) {
	dir := t.TempDir()
	w1 := openWALQueue(t, dir)
	for i := 0; i < 5; i++ {
		if err := w1.Enqueue(Task{ID: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	lease, tasks := w1.Lease("worker", 3, time.Minute)
	if len(tasks) != 3 {
		t.Fatalf("leased %v", ids(tasks))
	}
	before := w1.WALBytes()
	acked := w1.AckBatch(lease, []string{"t0", "ghost", "t2"})
	if !acked[0] || acked[1] || !acked[2] {
		t.Fatalf("AckBatch = %v, want [true false true]", acked)
	}
	growth := w1.WALBytes() - before
	// The whole batch must land as one frame: its log growth is one
	// header plus the ID array, far below two per-task 'A' frames'
	// worth of sync overhead — assert the single-digit frame count
	// indirectly by replay semantics below and cheaply here by size.
	if growth <= 0 {
		t.Fatal("batched ack wrote nothing to the WAL")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWALQueue(t, dir)
	rec := w2.Recovered()
	want := []string{"t1", "t3", "t4"}
	if len(rec) != len(want) {
		t.Fatalf("recovered %d tasks, want %d (%v)", len(rec), len(want), rec)
	}
	for i, task := range rec {
		if task.ID != want[i] {
			t.Fatalf("recovered order[%d] = %s, want %s", i, task.ID, want[i])
		}
	}
	// An all-miss batch (expired lease) writes no frame at all.
	lease2, tasks2 := w2.Lease("worker", 1, 10*time.Millisecond)
	if len(tasks2) != 1 {
		t.Fatal("no lease after recovery")
	}
	w2.Expire(time.Now().Add(time.Minute))
	before = w2.WALBytes()
	for _, ok := range w2.AckBatch(lease2, []string{tasks2[0].ID}) {
		if ok {
			t.Error("expired lease batch-acked a task")
		}
	}
	if w2.WALBytes() != before {
		t.Error("an all-miss AckBatch grew the WAL")
	}
}

// TestWALQueueRecoveryIsStable pins that recovery is idempotent: a
// second restart with no intervening traffic replays the same tasks.
func TestWALQueueRecoveryIsStable(t *testing.T) {
	dir := t.TempDir()
	w1 := openWALQueue(t, dir)
	for i := 0; i < 3; i++ {
		w1.Enqueue(Task{ID: fmt.Sprintf("t%d", i)})
	}
	w1.Close()
	for round := 0; round < 3; round++ {
		w := openWALQueue(t, dir)
		if got := len(w.Recovered()); got != 3 {
			t.Fatalf("round %d recovered %d tasks, want 3", round, got)
		}
		w.Close()
	}
}

// TestWALQueueTornTail: a frame half-written at crash time is
// truncated away; the intact prefix replays.
func TestWALQueueTornTail(t *testing.T) {
	dir := t.TempDir()
	w1 := openWALQueue(t, dir)
	w1.Enqueue(Task{ID: "t0"})
	w1.Enqueue(Task{ID: "t1"})
	// Simulate a crash: no Close, just tear the log's tail directly.
	f, err := os.OpenFile(filepath.Join(dir, walLogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{99, 0, 0, 0, 'E', 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := NewWALQueue(NewMemQueue(), dir, WALOptions{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer w2.Close()
	rec := w2.Recovered()
	if len(rec) != 2 || rec[0].ID != "t0" || rec[1].ID != "t1" {
		t.Fatalf("recovered %v, want [t0 t1]", rec)
	}
	// The truncated log accepts new traffic.
	if err := w2.Enqueue(Task{ID: "t2"}); err != nil {
		t.Fatal(err)
	}
}

// TestWALQueueTornGroup: a crash in the middle of one grouped
// Enqueue write leaves a torn log. Cut at every byte of the group's
// write, recovery replays exactly the group's whole frames, a prefix
// of the group in order, and a second open replays the same.
func TestWALQueueTornGroup(t *testing.T) {
	src := t.TempDir()
	w, err := NewWALQueue(NewMemQueue(), src, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	group := make([]Task, 5)
	for i := range group {
		group[i] = Task{ID: fmt.Sprintf("t%d", i), Hash: "h", Payload: i}
	}
	if err := w.Enqueue(group...); err != nil {
		t.Fatal(err)
	}
	w.log.Close() // crash: no compaction
	snap, err := os.ReadFile(filepath.Join(src, walSnapName))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, walLogName))
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the log size holding the group's first k frames.
	ends := []int{0}
	for rest := log; len(rest) > 0; {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(rest))
		ends = append(ends, ends[len(ends)-1]+n)
		rest = rest[n:]
	}
	if len(ends) != len(group)+1 {
		t.Fatalf("group wrote %d frames, want %d", len(ends)-1, len(group))
	}
	for cut := 0; cut <= len(log); cut++ {
		whole := 0
		for whole < len(group) && ends[whole+1] <= cut {
			whole++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSnapName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walLogName), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for open := 1; open <= 2; open++ {
			w, err := NewWALQueue(NewMemQueue(), dir, WALOptions{})
			if err != nil {
				t.Fatalf("cut %d, open %d: %v", cut, open, err)
			}
			got := ids(w.Recovered())
			w.Close()
			if want := ids(group[:whole]); !slices.Equal(got, want) {
				t.Fatalf("cut %d of %d, open %d: recovered %v, want %v", cut, len(log), open, got, want)
			}
		}
	}
}

// TestWALQueueCompaction: churning tasks through the queue must not
// grow the log without bound — dead entries are compacted into a
// snapshot of only the live set.
func TestWALQueueCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openWALQueue(t, dir)
	// One long-lived straggler so compaction always has live state to
	// carry over.
	w.Enqueue(Task{ID: "straggler"})
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := w.Enqueue(Task{ID: id}); err != nil {
			t.Fatal(err)
		}
		lease, tasks := w.Lease("w", 1, 0)
		if len(tasks) != 1 {
			t.Fatalf("iteration %d: leased %v", i, tasks)
		}
		if !w.Ack(lease, tasks[0].ID) {
			t.Fatalf("iteration %d: ack refused", i)
		}
	}
	// 2000 enqueue+ack pairs ≈ 160KB of frames if never compacted; the
	// bound proves compaction ran and the snapshot holds only live
	// tasks. (The straggler was leased first and acked first; the live
	// set at the end is exactly one task of the tail.)
	if got := w.WALBytes(); got > 64<<10 {
		t.Fatalf("WALBytes = %d after churn, want compacted (< 64KB)", got)
	}
	st := w.Stats()
	w.Close()

	w2 := openWALQueue(t, dir)
	if got := len(w2.Recovered()); got != st.Pending+st.Leased {
		t.Fatalf("recovered %d tasks after churn, want %d", got, st.Pending+st.Leased)
	}
}

// TestWALQueueCustomCodec pins the Encode/Decode seam the coordinator
// uses to map live payload objects to their wire form and back.
func TestWALQueueCustomCodec(t *testing.T) {
	type payload struct{ V string }
	dir := t.TempDir()
	opt := WALOptions{
		Encode: func(p any) ([]byte, error) { return []byte(p.(payload).V), nil },
		Decode: func(b []byte) (any, error) { return payload{V: string(b)}, nil },
	}
	w1, err := NewWALQueue(NewMemQueue(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	w1.Enqueue(Task{ID: "t", Payload: payload{V: "hello"}})
	w1.Close()

	w2, err := NewWALQueue(NewMemQueue(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec := w2.Recovered()
	if len(rec) != 1 || rec[0].Payload.(payload).V != "hello" {
		t.Fatalf("custom codec did not round-trip: %#v", rec)
	}
}
