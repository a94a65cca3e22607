package cell

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wtcp/internal/errmodel"
)

// runInjected warms a small cell mid-run, applies inject, and drives the
// rest of the run the way RunContext does.
func runInjected(t *testing.T, cfg Config, inject func(e *engine)) (*Result, error) {
	t.Helper()
	e := warmEngine(t, cfg, 200)
	inject(e)
	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.finish()
}

// TestEngineFaultsFailClosed injects each engine fault into a healthy run
// and checks the one rule: the run returns the named fault and no Result,
// and when both occur the first one names the error.
func TestEngineFaultsFailClosed(t *testing.T) {
	cfg := smallConfig(8)
	cfg.Policy = CSDP
	cfg.PredictorAccuracy = 0.9

	// doubleRetire retires every live segment behind the engine's back,
	// then one more: the conservation latch fires on the extra one.
	doubleRetire := func(e *engine) {
		if e.segs.live == 0 {
			t.Fatal("no live segment to corrupt")
		}
		retireAll(e)
		e.retire(0)
	}
	// slideWindows moves every channel's window an hour past the clock, as
	// a Forget with a floor that is not one would.
	slideWindows := func(e *engine) {
		for i := range e.chans {
			ch := &e.chans[i]
			ch.Forget(time.Hour)
			ch.StateAt(2 * time.Hour)
		}
	}

	// overshoot leaves one sender's snd_max past its transfer, where no
	// transition ever moves it back: the audit in finish meets it.
	overshoot := func(e *engine) { e.rows[3].SndMax = int64(e.tcp.Total) + 1 }

	if res, err := runInjected(t, cfg, func(*engine) {}); err != nil || !res.Completed {
		t.Fatalf("uninjected run: %+v, %v", res, err)
	}

	res, err := runInjected(t, cfg, doubleRetire)
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "cell: segment-conservation: flow 0 retired a segment with none live") {
		t.Fatalf("double retire: result %v, error %v", res, err)
	}

	res, err = runInjected(t, cfg, slideWindows)
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "cell: channel-window: ") || !errors.Is(err, errmodel.ErrForgotten) {
		t.Fatalf("query below the window: result %v, error %v", res, err)
	}

	res, err = runInjected(t, cfg, overshoot)
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "cell: flow-invariant: flow 3: snd_max ") {
		t.Fatalf("sender state past its transfer: result %v, error %v", res, err)
	}

	// Two at once, in either order: the first to be latched names the
	// error (the flow audit runs at teardown, so it never latches first).
	res, err = runInjected(t, cfg, func(e *engine) {
		doubleRetire(e)
		slideWindows(e)
	})
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "cell: segment-conservation: ") {
		t.Fatalf("conservation fault, then window fault: result %v, error %v", res, err)
	}
	res, err = runInjected(t, cfg, func(e *engine) {
		slideWindows(e)
		e.predictGood(0) // the engine meets the moved window now
		doubleRetire(e)
		overshoot(e)
	})
	if res != nil || err == nil || !strings.HasPrefix(err.Error(), "cell: channel-window: ") {
		t.Fatalf("window fault, then conservation fault: result %v, error %v", res, err)
	}
}

// TestRunNeverQueriesBelowTheWindow is the other half of the contract:
// across policies, channel modes and chaos, transmit's floor really is one
// — no run faults — and the windows do slide: a channel retains what its
// longest gap between transmissions spanned (here RTO backoffs of several
// seconds over 70 ms fading cycles), not the thousands of intervals the
// run crossed.
func TestRunNeverQueriesBelowTheWindow(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, pol := range []Policy{FIFO, RoundRobin, CSDP} {
			cfg := smallConfig(12)
			cfg.BaseStations = 2
			cfg.Policy = pol
			cfg.SharedChannel = shared
			cfg.PredictorAccuracy = 0.8
			cfg.EBSN = true
			cfg.TransferSize *= 16
			cfg.Channel.MeanGood = 50 * time.Millisecond
			cfg.Channel.MeanBad = 20 * time.Millisecond
			cfg.faults = faults{dropP: 0.02, dupP: 0.02, reorderP: 0.05}
			e := warmEngine(t, cfg, 1)
			if err := e.loop(); err != nil {
				t.Fatalf("%v shared=%v: %v", pol, shared, err)
			}
			now := e.s.Now()
			retained := 0
			for i := range e.chans {
				ch := &e.chans[i]
				if ch.Err() != nil {
					t.Fatalf("%v shared=%v: channel %d latched %v", pol, shared, i, ch.Err())
				}
				ivs := ch.Intervals(now)
				if ivs[0].Start == 0 {
					t.Errorf("%v shared=%v: channel %d still holds its first interval at %v", pol, shared, i, now)
				}
				retained += len(ivs)
			}
			crossed := len(e.chans) * int(2*now/(cfg.Channel.MeanGood+cfg.Channel.MeanBad))
			if retained*4 > crossed {
				t.Errorf("%v shared=%v: %d intervals retained of ~%d crossed by %v", pol, shared, retained, crossed, now)
			}
			if res, err := e.finish(); err != nil || !res.Completed {
				t.Fatalf("%v shared=%v: %+v, %v", pol, shared, res, err)
			}
			if now < 20*time.Second {
				t.Fatalf("%v shared=%v: run ended at %v, too short to cross many intervals", pol, shared, now)
			}
		}
	}
}
