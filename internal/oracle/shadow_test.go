package oracle_test

import (
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/oracle"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// TestShadowSetsPlateau is the oracle-side twin of core's
// TestPerRunSetsPlateau: over a 4 MB transfer the checker's shadow sets
// follow the window, not the transfer. The snoop shadow used to keep
// every segment ever admitted, and the discard set every packet ever
// withdrawn.
func TestShadowSetsPlateau(t *testing.T) {
	lanSnoop := core.LAN(bs.Snoop, 800*time.Millisecond)
	wanEBSN := core.WAN(bs.EBSN, 576, 2*time.Second)
	wanEBSN.TransferSize = 4 * units.MB
	wanEBSN.ARQ = bs.ARQConfig{RTmax: 3} // force whole-packet discards

	for _, tc := range []struct {
		name string
		cfg  core.Config
		// grows counts the events that add an entry to the set under
		// test; peak reads that set's size.
		grows trace.EventKind
		peak  func(units, discarded, snoop int) int
		// bound is the most entries the window can justify.
		bound int
	}{
		// 64 KB window / 1496-byte segments = 44 in flight; an entry lives
		// until snd_una passes the snd_max of its admission (a second
		// window), and the sweep runs when the set has doubled.
		{"lan-snoop", lanSnoop, trace.SnoopAdmit,
			func(_, _, snoop int) int { return snoop }, 4*44 + 32},
		// A discarded packet is forgotten once snd_una passes the snd_max
		// of its discard: 4 KB window / 536-byte segments = 8 packets in
		// flight, allowed twice over.
		{"wan-ebsn-discards", wanEBSN, trace.ARQDiscard,
			func(_, discarded, _ int) int { return discarded }, 16},
		// Units in flight never exceed the ARQ window.
		{"wan-ebsn-units", wanEBSN, trace.ARQAttempt,
			func(units, _, _ int) int { return units }, bs.DefaultARQWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CollectTrace, cfg.Oracle = true, true
			res, err := core.Run(cfg)
			if err != nil || !res.Completed {
				t.Fatalf("run: completed=%v err=%v", res != nil && res.Completed, err)
			}
			events := res.Trace.Events()
			c := oracle.New(oracle.Config{
				Variant: cfg.Variant, MSS: cfg.MSS(), Window: cfg.Window,
				RTmax:              cfg.ARQ.WithDefaults().RTmax,
				SnoopMaxRetx:       cfg.Snoop.WithDefaults().MaxLocalRetx,
				TrackNotifications: true,
			})
			grown, peak := 0, 0
			for i := range events {
				if v := c.Observe(i, &events[i]); v != nil {
					t.Fatalf("replay of a run the oracle accepted: %v", v)
				}
				if events[i].Kind == tc.grows {
					grown++
				}
				if n := tc.peak(c.ShadowSizes()); n > peak {
					peak = n
				}
			}
			if grown < 10*tc.bound {
				t.Fatalf("workload too small to show growth: %d %v events against a bound of %d", grown, tc.grows, tc.bound)
			}
			if peak > tc.bound {
				t.Errorf("shadow set peaked at %d entries over %d %v events, want at most %d", peak, grown, tc.grows, tc.bound)
			}
			t.Logf("%d %v events, peak %d (bound %d)", grown, tc.grows, peak, tc.bound)
		})
	}
}
