package core

import (
	"context"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/units"
)

// TestSurvivesNearPermanentFade drives every scheme through a channel
// that is bad 80% of the time — far beyond the paper's operating range —
// and requires eventual completion (no deadlock, no livelock) with sane
// accounting.
func TestSurvivesNearPermanentFade(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN, bs.Snoop, bs.SplitConnection} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := WAN(scheme, 576, 8*time.Second)
			cfg.Channel.MeanGood = 2 * time.Second
			cfg.TransferSize = 10 * units.KB
			cfg.Horizon = 2 * time.Hour
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v livelocked under 80%% fade", scheme)
			}
			if g := r.Summary.Goodput; g <= 0 || g > 1.0000001 {
				t.Errorf("goodput = %v", g)
			}
		})
	}
}

// TestFadeAtConnectionStart begins the run inside a fade: the very first
// segment (and the initial RTO) must cope with zero feedback.
func TestFadeAtConnectionStart(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
		cfg := WAN(scheme, 576, 4*time.Second)
		cfg.Channel.Start = errmodel.Bad
		cfg.TransferSize = 20 * units.KB
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%v never escaped the initial fade", scheme)
		}
	}
}

// TestTinyTransfers exercises the degenerate sizes: one byte, one
// segment, one segment plus a byte.
func TestTinyTransfers(t *testing.T) {
	for _, size := range []units.ByteSize{1, 536, 537} {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN, bs.SplitConnection} {
			cfg := WAN(scheme, 576, 2*time.Second)
			cfg.TransferSize = size
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%d: %v", scheme, size, err)
			}
			if !r.Completed {
				t.Fatalf("%v/%d did not complete", scheme, size)
			}
		}
	}
}

// TestExtremePacketSizes runs the boundary packet sizes the validator
// admits.
func TestExtremePacketSizes(t *testing.T) {
	for _, size := range []units.ByteSize{41, 128, 4096} {
		cfg := WAN(bs.EBSN, size, time.Second)
		cfg.TransferSize = 5 * units.KB
		if size-PaperHeader > cfg.Window {
			cfg.Window = size // keep window >= one segment
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !r.Completed {
			t.Fatalf("size %d did not complete", size)
		}
	}
}

// TestHighBERGoodState raises the good-state BER a hundredfold (the
// paper's conservative-model caveat in reverse): everything still
// completes, with visibly more loss events.
func TestHighBERGoodState(t *testing.T) {
	clean := WAN(bs.EBSN, 576, 2*time.Second)
	clean.TransferSize = 30 * units.KB
	rc, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	noisy := clean
	noisy.Channel.GoodBER = 1e-4
	rn, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !rn.Completed {
		t.Fatal("high-BER run did not complete")
	}
	if rn.WirelessDown.Corrupted <= rc.WirelessDown.Corrupted {
		t.Errorf("corruption did not rise with BER: %d vs %d",
			rn.WirelessDown.Corrupted, rc.WirelessDown.Corrupted)
	}
	if rn.Summary.ThroughputKbps > rc.Summary.ThroughputKbps {
		t.Error("higher BER improved throughput")
	}
}

// TestDeterministicChannelAcrossSchemes is the paper's §4.2.1 methodology
// check: the deterministic channel subjects every scheme to the exact
// same fade schedule, so the wireless link's state trajectory must be
// identical — only the schemes' reactions differ.
func TestDeterministicChannelAcrossSchemes(t *testing.T) {
	var firstFadeStartState errmodel.State
	for i, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
		cfg := WAN(scheme, 576, 4*time.Second)
		cfg.Channel.Deterministic = true
		ch, err := errmodel.NewMarkov(cfg.Channel, nil)
		if err != nil {
			t.Fatal(err)
		}
		state := ch.StateAt(11 * time.Second)
		if i == 0 {
			firstFadeStartState = state
		} else if state != firstFadeStartState {
			t.Error("deterministic schedule differs across schemes")
		}
	}
	if firstFadeStartState != errmodel.Bad {
		t.Errorf("11s should be inside the first fade, got %v", firstFadeStartState)
	}
}

// TestReorderTimeoutOverride exercises the mobile-host gap-flush knob end
// to end: an absurdly small reorder timeout forces flushes under burst
// loss yet the transfer still completes correctly.
func TestReorderTimeoutOverride(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 4*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.ARQ.BackoffMax = 400 * time.Millisecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("did not complete with custom ARQ timing")
	}
}

// TestARQAckDeadlineFollowsRadio pins the link-ack deadline the WAN and
// LAN presets run with to their two radio links: the link ack's
// serialization on the uplink, both propagation delays, and slack of
// four more ack times plus 20 ms. Every delivery on the downlink is lost,
// so every attempt fails, and each failure must land exactly that long
// after its unit left the transmitter.
func TestARQAckDeadlineFollowsRadio(t *testing.T) {
	for name, cfg := range map[string]Config{
		"wan": WAN(bs.LocalRecovery, 576, 4*time.Second),
		"lan": LAN(bs.EBSN, 800*time.Millisecond),
	} {
		cfg.Horizon = 20 * time.Second
		tp, err := newTopology(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		down, up := tp.wirelessDown, tp.wirelessUp
		ackTx := up.TxTime(packet.ControlSize)
		want := down.Delay() + up.Delay() + ackTx + 4*ackTx + 20*time.Millisecond
		if got := bs.AckDeadline(down); got != want {
			t.Errorf("%s: bs.AckDeadline = %v, want %v", name, got, want)
		}
		left := map[uint64]time.Duration{} // unit ID -> when it left the transmitter
		down.SetInterceptor(func(p *packet.Packet) bool {
			left[p.ID] = tp.sim.Now() - down.Delay()
			return false
		})
		failures := 0
		tp.bs.SetHooks(bs.Hooks{OnARQFailure: func(unit, _ uint64, attempt int) {
			at, ok := left[unit]
			if !ok {
				return // the attempt was corrupted on the air, so never delivered
			}
			delete(left, unit)
			failures++
			if got := tp.sim.Now() - at; got != want {
				t.Errorf("%s: unit %d attempt %d failed %v after leaving the transmitter, want %v", name, unit, attempt, got, want)
			}
		}})
		if _, err := tp.run(context.Background(), cfg, func() bool { return false }); err != nil {
			t.Fatal(err)
		}
		if failures < 10 {
			t.Errorf("%s: %d timed attempts, want the lost downlink to fail many", name, failures)
		}
	}
}
