package cell

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// perFlow2k is the cell_10k shape (perFlow10k) cut to 2 000 flows: one
// fading channel per flow, admission in batches of 400, and every lane
// of the calendar busy.
func perFlow2k(pol Policy) Config {
	cfg := perFlow10k(pol)
	cfg.Flows = 2000
	return cfg
}

// TestManyFlowRunIsPinned pins many-flow runs bit for bit to constants
// recorded from the engine before its calendar cached lane heads and its
// deliveries travelled by value. TestRunMatchesReferenceEngine covers 1-4
// flows, where the calendar rarely holds several lanes at once, and the
// determinism and inline-advance tests compare the engine with itself;
// this is the pin that sees a changed pop order or draw at population
// scale.
func TestManyFlowRunIsPinned(t *testing.T) {
	chaos := perFlow2k(FIFO)
	chaos.Chaos = Chaos{ReorderP: 0.2, DupP: 0.05, DropP: 0.01}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"rr", perFlow2k(RoundRobin),
			"kbps 0x411f3ac49d68c5d8 fairness 0x3fef6618775e34e0 timeouts 206 attempts 61155 discards 847 skipped 0 events 211550 calendar 430"},
		{"fifo", perFlow2k(FIFO),
			"kbps 0x41107a19e1f63fa2 fairness 0x3fe0c8e2f850ad88 timeouts 4994 attempts 136010 discards 4224 skipped 0 events 407982 calendar 430"},
		{"csdp", perFlow2k(CSDP),
			"kbps 0x4120e68b11f75bfc fairness 0x3fefa044f4e3ee10 timeouts 347 attempts 47201 discards 0 skipped 183439 events 188266 calendar 430"},
		{"fifo-chaos", chaos,
			"kbps 0x411050dbead63f1a fairness 0x3fe5aa96558a0e80 timeouts 4428 attempts 112827 discards 3136 skipped 0 events 355381 calendar 491"},
	} {
		start := time.Now()
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("kbps %#x fairness %#x timeouts %d attempts %d discards %d skipped %d events %d calendar %d",
			math.Float64bits(res.AggregateKbps), math.Float64bits(res.Fairness), res.TotalTimeouts,
			res.RadioAttempts, res.RadioDiscards, res.SkippedBad, res.Events, res.CalendarPeak)
		t.Logf("%s (%v, arena peak %d): %s", tc.name, time.Since(start).Round(time.Millisecond), res.Arena.PeakLive, got)
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
