package core

import (
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/errmodel"
	"wtcp/internal/units"
)

func TestSplitConnectionCompletes(t *testing.T) {
	cfg := WAN(bs.SplitConnection, 576, 2*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("split transfer did not complete")
	}
	if r.Sink.SegmentsReceived == 0 {
		t.Error("mobile host received nothing")
	}
	if r.SplitWireless == nil {
		t.Fatal("wireless-side stats missing")
	}
	if r.Summary.ThroughputKbps <= 0 {
		t.Error("no throughput measured")
	}
}

func TestSplitViolatesEndToEndSemantics(t *testing.T) {
	// The paper's §2 criticism: with a split connection, acknowledgments
	// reach the fixed host before the data reaches the mobile host. The
	// wired half must finish strictly earlier than the whole transfer.
	cfg := WAN(bs.SplitConnection, 576, 4*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.SplitWiredDone >= r.Summary.Elapsed {
		t.Errorf("wired half finished at %v, not before end-to-end completion %v",
			r.SplitWiredDone, r.Summary.Elapsed)
	}
	// The gap is large on this topology (56 kbps wire vs lossy 12.8 kbps
	// radio): the fixed host is done in well under half the real time.
	if r.SplitWiredDone > r.Summary.Elapsed/2 {
		t.Errorf("semantics gap suspiciously small: wired %v vs total %v",
			r.SplitWiredDone, r.Summary.Elapsed)
	}
}

func TestSplitWirelessHalfStillSuffersBurstLosses(t *testing.T) {
	// Splitting isolates the wireless losses but does not remove them:
	// the paper notes split connections "do not perform well in the
	// presence of bursty losses". The wireless-side sender must show
	// congestion events.
	cfg := WAN(bs.SplitConnection, 576, 4*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := r.SplitWireless
	if ws.Timeouts == 0 && ws.FastRetransmits == 0 {
		t.Error("wireless half saw no loss events under a 4s-fade channel")
	}
	// And EBSN beats split under identical conditions.
	e := WAN(bs.EBSN, 576, 4*time.Second)
	re, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if re.Summary.ThroughputKbps <= r.Summary.ThroughputKbps {
		t.Errorf("EBSN %.2f kbps not above split %.2f kbps",
			re.Summary.ThroughputKbps, r.Summary.ThroughputKbps)
	}
}

func TestSplitAvoidsFragmentation(t *testing.T) {
	// The wireless half uses MTU-sized segments, so the radio never
	// carries fragments.
	cfg := WAN(bs.SplitConnection, 1536, 2*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.Mobile.UnitsReceived == 0 {
		t.Fatal("no units at mobile host")
	}
	// Every unit at the mobile host is a whole (small) data segment; the
	// reassembler never sees fragments.
	if r.Sink.SegmentsReceived != r.Mobile.UnitsReceived {
		t.Errorf("units %d != segments %d: fragmentation happened",
			r.Mobile.UnitsReceived, r.Sink.SegmentsReceived)
	}
}

func TestSplitTraceFollowsWirelessHalf(t *testing.T) {
	cfg := WAN(bs.SplitConnection, 576, 2*time.Second)
	cfg.CollectTrace = true
	cfg.TransferSize = 20 * units.KB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || len(r.Trace.Events()) == 0 {
		t.Error("split run collected no trace")
	}
}

func TestSplitLANRuns(t *testing.T) {
	cfg := LAN(bs.SplitConnection, 800*time.Millisecond)
	cfg.TransferSize = units.MB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("LAN split did not complete")
	}
}

func TestBaseStationRejectsSplitScheme(t *testing.T) {
	// Guard the layering: the BaseStation agent must refuse the split
	// scheme (core owns that topology).
	cfg := WAN(bs.SplitConnection, 576, time.Second)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config invalid: %v", err)
	}
}

// TestSplitHonoursSharedSettings: split mode runs on the shared builder,
// so the settings its old private wiring silently ignored now act on it —
// each one moves the counter it exists to move.
func TestSplitHonoursSharedSettings(t *testing.T) {
	base := WAN(bs.SplitConnection, 576, 2*time.Second)
	base.TransferSize = 50 * units.KB
	without, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		set   func(*Config)
		moved func(with *Result) bool
	}{
		{"ECN", func(c *Config) {
			c.ECN = true
			c.CrossTraffic = CrossTraffic{Rate: units.BitRate(0.8 * float64(c.WiredRate))}
		}, func(with *Result) bool { return with.Sender.ECNResponses > without.Sender.ECNResponses }},
		{"CrossTraffic", func(c *Config) {
			c.CrossTraffic = CrossTraffic{Rate: units.BitRate(0.8 * float64(c.WiredRate))}
		}, func(with *Result) bool { return with.SplitWiredDone > without.SplitWiredDone }},
		{"DelayedAcks", func(c *Config) { c.DelayedAcks = true },
			func(with *Result) bool { return with.Sink.AcksSent < without.Sink.AcksSent }},
		{"UplinkChannel", func(c *Config) { c.UplinkChannel = &errmodel.Config{MeanGood: time.Hour} },
			func(with *Result) bool { return with.WirelessUp.Corrupted == 0 && without.WirelessUp.Corrupted > 0 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			with, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !with.Completed || !tc.moved(with) {
				t.Errorf("%s had no effect on a split run: completed=%v\n without %+v\n with    %+v",
					tc.field, with.Completed, without, with)
			}
		})
	}
}
