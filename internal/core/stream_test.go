package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/oracle"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// replayConfig is the checker configuration tap gives the stream that
// Result.Trace stores: the topology's own, or the wireless half's at its
// own MSS on a split run.
func replayConfig(cfg Config) oracle.Config {
	if cfg.Scheme == bs.SplitConnection {
		mss := cfg.MSS()
		if cfg.MTU > 0 && cfg.PacketSize > cfg.MTU {
			mss = cfg.MTU - PaperHeader
		}
		return oracle.Config{Variant: cfg.Variant, MSS: mss, Window: cfg.Window}
	}
	return oracle.Config{
		Variant: cfg.Variant, MSS: cfg.MSS(), Window: cfg.Window,
		RTmax:              cfg.ARQ.WithDefaults().RTmax,
		SnoopMaxRetx:       cfg.Snoop.WithDefaults().MaxLocalRetx,
		TrackNotifications: true,
	}
}

// storedStreamOf returns what the store holds when the oracle halts a
// run: RunContext hands back no Result then, so the test steps the
// topology itself. The store is subscribed ahead of the checker, so the
// violating event is the last one stored.
func storedStreamOf(t *testing.T, cfg Config) []trace.Event {
	t.Helper()
	cfg.Oracle = true
	tp, err := newTopology(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := tp.tap(cfg, true)
	tp.sender.Start()
	for !tp.sender.Done() && tp.sim.Failure() == nil {
		if ok, err := tp.sim.Step(); !ok || err != nil {
			break
		}
	}
	events := tr.Events()
	tp.release()
	return events
}

// sameBits compares what a run measured, floats by bit pattern.
func sameBits(a, b *Result) bool {
	return a.Completed == b.Completed && a.Events == b.Events &&
		math.Float64bits(a.Summary.ThroughputKbps) == math.Float64bits(b.Summary.ThroughputKbps) &&
		math.Float64bits(a.Summary.ThroughputMbps) == math.Float64bits(b.Summary.ThroughputMbps) &&
		math.Float64bits(a.Summary.Goodput) == math.Float64bits(b.Summary.Goodput) &&
		a.Summary == b.Summary && a.Sender == b.Sender && a.Sink == b.Sink &&
		a.BS == b.BS && a.Mobile == b.Mobile && a.Kernel == b.Kernel
}

// TestStreamingEqualsReplay is the differential pin of the source/sink
// split. Over the variant x scheme zoo on both presets and two chaos
// plans — one the oracle must survive, one it must trip on — a run with
// the checker alone, a run with checker and store, and oracle.Check over
// the stored stream agree on the verdict and, on a violation, on the
// exact rule, event index, event and explanation; and arming either sink
// moves no result bit relative to a bare run.
func TestStreamingEqualsReplay(t *testing.T) {
	type plan struct {
		name string
		cfg  Config
	}
	var plans []plan
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, s := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
			wan := WAN(s, PaperWANPacketDefault, 2*time.Second)
			wan.Variant = v
			lan := LAN(s, 800*time.Millisecond)
			lan.Variant = v
			if testing.Short() || raceEnabled {
				lan.TransferSize = units.MB
			}
			plans = append(plans,
				plan{fmt.Sprintf("wan/%v/%v", v, s), wan},
				plan{fmt.Sprintf("lan/%v/%v", v, s), lan})
		}
	}
	benign := WAN(bs.EBSN, 576, 2*time.Second)
	benign.TransferSize = 30 * units.KB
	benign.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WirelessDown, At: 5 * time.Second, Length: 2 * time.Second}},
		Storms:    []chaos.Storm{{Link: chaos.WirelessUp, At: 20 * time.Second, Length: 2 * time.Second, LossProb: 0.5}},
	}
	notifyDup := WAN(bs.EBSN, 576, 4*time.Second)
	notifyDup.TransferSize = 50 * units.KB
	notifyDup.Chaos = &chaos.Config{Notify: chaos.NotifyFaults{DupProb: 1}}
	plans = append(plans, plan{"chaos/benign", benign}, plan{"chaos/notify-dup", notifyDup})

	tripped := 0
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			bare, err := Run(p.cfg)
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}
			checked := p.cfg
			checked.Oracle = true
			r1, err1 := Run(checked)
			stored := checked
			stored.CollectTrace = true
			r2, err2 := Run(stored)

			var v1, v2 *oracle.Violation
			if (err1 != nil && !errors.As(err1, &v1)) || (err2 != nil && !errors.As(err2, &v2)) {
				t.Fatalf("run errors are not violations: %v / %v", err1, err2)
			}
			var events []trace.Event
			if v2 == nil {
				events = r2.Trace.Events()
			} else {
				events = storedStreamOf(t, p.cfg)
			}
			v3 := oracle.Check(replayConfig(p.cfg), events)

			if (v1 == nil) != (v2 == nil) || (v1 == nil) != (v3 == nil) {
				t.Fatalf("verdicts differ: checker alone %v, checker+store %v, replay of %d stored events %v", v1, v2, len(events), v3)
			}
			if v1 != nil {
				tripped++
				if *v1 != *v2 || *v1 != *v3 {
					t.Fatalf("violations differ:\n checker alone  %+v\n checker+store  %+v\n replay         %+v", v1, v2, v3)
				}
				if v1.Index != len(events)-1 || v1.Event != events[v1.Index] || v1.Detail == "" {
					t.Errorf("violation %+v does not point at the last of %d stored events", v1, len(events))
				}
				return
			}
			if r1.Trace != nil || r1.Cwnd != nil || r2.Trace == nil || r2.Cwnd == nil {
				t.Errorf("Trace/Cwnd must be non-nil exactly when CollectTrace is set: oracle-only %v/%v, with store %v/%v",
					r1.Trace != nil, r1.Cwnd != nil, r2.Trace != nil, r2.Cwnd != nil)
			}
			if len(events) == 0 {
				t.Error("store is empty")
			}
			if !sameBits(bare, r1) || !sameBits(bare, r2) {
				t.Errorf("arming a sink moved a result bit:\n bare          %+v\n checker       %+v\n checker+store %+v", bare.Summary, r1.Summary, r2.Summary)
			}
		})
	}
	if tripped != 1 {
		t.Errorf("%d plans tripped the oracle, want exactly the notification-duplication one", tripped)
	}
}

// TestOracleRetainsNothing: with the checker as the only sink the run
// keeps no event — no Trace on the Result for any scheme (the split
// runner used to hand back its tap), and the bytes a warm 4 MB LAN run
// allocates stay within a fixed margin of an unchecked run's. Storing
// that run's stream takes megabytes.
func TestOracleRetainsNothing(t *testing.T) {
	for _, s := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
		cfg := WAN(s, PaperWANPacketDefault, 2*time.Second)
		cfg.Oracle = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Trace != nil || res.Cwnd != nil {
			t.Errorf("%v: oracle-only run returned a trace", s)
		}
	}
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	bytesOf := func(oracle, store bool) uint64 {
		cfg := LAN(bs.EBSN, 800*time.Millisecond)
		cfg.Oracle, cfg.CollectTrace = oracle, store
		run := func() {
			if res, err := Run(cfg); err != nil || !res.Completed {
				t.Fatalf("run: completed=%v err=%v", res != nil && res.Completed, err)
			}
		}
		run() // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	off, on, stored := bytesOf(false, false), bytesOf(true, false), bytesOf(true, true)
	const margin = 32 << 10
	if on > off+margin {
		t.Errorf("oracle-on run allocated %d bytes, oracle-off %d: more than %d apart, something is being retained", on, off, margin)
	}
	if stored < on+(1<<20) {
		t.Errorf("storing the stream allocated only %d bytes over %d: the margin above proves nothing", stored, on)
	}
}

// TestOracleAllocs pins the checker's allocation behaviour next to
// TestWarmRunAllocs: replaying a recorded conforming stream allocates a
// constant few dozen objects to build the checker and none per event,
// and arming the oracle on a warm LAN run adds at most 64 objects (the
// source, the checker, its maps) to the unchecked run's count. Before the
// source/sink split both grew by one closure and one copied event per
// event — about 30 000 on the LAN run.
func TestOracleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	sack := LAN(bs.Snoop, 800*time.Millisecond)
	sack.Variant = tcp.SACKVariant
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"wan", WAN(bs.LocalRecovery, PaperWANPacketDefault, 4*time.Second)},
		{"lan-sack", sack},
	} {
		t.Run("replay/"+tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Oracle, cfg.CollectTrace = true, true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events, ocfg := res.Trace.Events(), replayConfig(cfg)
			retx := res.Trace.Count(trace.Retransmit)
			if len(events) < 2000 || retx == 0 {
				t.Fatalf("stream too tame to pin anything: %d events, %d retransmissions", len(events), retx)
			}
			got := testing.AllocsPerRun(10, func() {
				if v := oracle.Check(ocfg, events); v != nil {
					t.Fatal(v)
				}
			})
			// The checker, its rule names, and its maps growing to window
			// size: a few dozen objects however long the stream is.
			if got > 64 {
				t.Errorf("oracle.Check over %d events allocated %.0f objects, want a constant (at most 64): 0 per event", len(events), got)
			}
		})
	}
	t.Run("run/lan", func(t *testing.T) {
		allocs := func(oracle bool) float64 {
			cfg := LAN(bs.EBSN, 800*time.Millisecond)
			cfg.Oracle = oracle
			run := func() {
				if res, err := Run(cfg); err != nil || !res.Completed {
					t.Fatalf("run: completed=%v err=%v", res != nil && res.Completed, err)
				}
			}
			run() // warm the pools
			return testing.AllocsPerRun(10, run)
		}
		off, on := allocs(false), allocs(true)
		if on > off+64 {
			t.Errorf("a warm oracle-on LAN run allocated %.0f objects, oracle-off %.0f: want at most 64 more", on, off)
		}
	})
}
