package server

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
)

// TestKeyGolden pins the hex Key of a few fixed jobs. Keys outlive the
// process — WAL frames, DiskStore records and worker caches persist
// them — so a change to any section's rendering or framing would
// orphan every stored result. The values were generated by the
// fmt/json.MarshalIndent implementation the keyer replaced.
func TestKeyGolden(t *testing.T) {
	dot, err := loop.ParseString("loop dot trip 100\nx = load\ny = load\nm = mul x, y\nacc = add m, acc@1\nout = store acc\n")
	if err != nil {
		t.Fatal(err)
	}
	memrec, err := loop.ParseString("loop memrec trip 64\na = load\nb = add a, c@2\nc = mul b, a\ns = store c\nmem s -> a @1\nmem a -> s\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		job  driver.Job
		want string
	}{
		{driver.Job{Loop: dot, Machine: machine.Clustered(4), Scheduler: "dms"},
			"ec2540375ea9cde3393beb349b6a240759fd52ddc76c12192ffea79ed3c0677f"},
		{driver.Job{Loop: dot, Machine: machine.Unclustered(4), Scheduler: "ims"},
			"afc5ec46d743ffae6a2a301636e0161083b83162d38656935c374584fede9215"},
		{driver.Job{Loop: dot, Machine: machine.Clustered(2), Scheduler: "twophase",
			Options: driver.Options{BudgetRatio: 3, MaxII: 40, DisableChains: true, RefinementPasses: 2, LoadSlack: 1}},
			"1de3f635ca661d14ba9af6a4da77eb26305a5b1e38b08113c1fcfc4e711ff135"},
		{driver.Job{Loop: memrec, Machine: machine.Clustered(8), Scheduler: "dms",
			Options: driver.Options{OneDirectionOnly: true}},
			"c2228c5022e5f7d32f7a35213cb11abefe1aad03c9abffe5fa4214f4d32946c2"},
	}
	k := newKeyer()
	for _, c := range cases {
		if got := JobKey(c.job); got != c.want {
			t.Errorf("JobKey(%s) = %s, want %s", c.job, got, c.want)
		}
		if got, _, _ := k.key(c.job); got != c.want {
			t.Errorf("keyer.key(%s) = %s, want %s", c.job, got, c.want)
		}
	}
}

// TestKeyerMatchesJobKey checks the memoising keyer against JobKey
// over a batch-shaped cross product, in which loops, machines and
// options repeat — the sharing the keyer's memo tables exploit.
func TestKeyerMatchesJobKey(t *testing.T) {
	machines := []*machine.Machine{machine.Clustered(2), machine.Clustered(4), machine.Unclustered(4)}
	k := newKeyer()
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, 40) {
		for _, m := range machines {
			for _, s := range []string{"dms", "ims"} {
				job := driver.Job{Loop: l, Machine: m, Scheduler: s}
				got, loopText, config := k.key(job)
				if want := JobKey(job); got != want {
					t.Fatalf("keyer.key(%s) = %s, JobKey = %s", job, got, want)
				}
				// The rendered sections are the unit's wire payload.
				if loopText != loop.Format(l) || string(config) != string(machineSection(m)) {
					t.Fatalf("keyer.key(%s) rendered %q and %s", job, loopText, config)
				}
			}
		}
	}
}
