package sms

import (
	"context"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

// The whole corpus at four machine widths: every loop must schedule
// and verify, SMS proper must handle almost everything itself (the
// IMS fallback exists for the rare ordering trap), and promotions must
// actually fire somewhere.
func TestStressFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus stress skipped in -short mode")
	}
	var runs, fallbacks, promotions int
	for _, l := range perfect.CorpusN(perfect.DefaultSeed, perfect.CorpusSize) {
		for _, w := range []int{1, 2, 5, 10} {
			g := ddg.FromLoop(l, lat())
			s, st, err := ScheduleCtx(context.Background(), g, machine.Unclustered(w), Options{})
			if err != nil {
				t.Fatalf("%s width %d: %v", l.Name, w, err)
			}
			if err := schedule.Verify(s); err != nil {
				t.Fatalf("%s width %d: %v", l.Name, w, err)
			}
			runs++
			if st.FellBack {
				fallbacks++
			}
			promotions += st.Promotions
		}
	}
	t.Logf("%d schedules, %d promotions, %d IMS fallbacks", runs, promotions, fallbacks)
	if fallbacks*100 > runs {
		t.Errorf("fallback rate %d/%d exceeds 1%%", fallbacks, runs)
	}
	if promotions == 0 {
		t.Error("no ordering promotions across the corpus — the repair is dead code")
	}
}
