package core

import (
	"testing"
	"testing/quick"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/errmodel"
	"wtcp/internal/units"
)

// TestPropertyRunInvariants drives Run across a randomized slice of the
// configuration space and checks the invariants every completed
// simulation must satisfy, regardless of scheme or error condition:
//
//  1. goodput lies in (0, 1];
//  2. throughput never exceeds the wireless hop's effective rate;
//  3. a run with zero loss events retransmits nothing;
//  4. the sink's delivered byte count equals the transfer size.
func TestPropertyRunInvariants(t *testing.T) {
	schemes := []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN, bs.SourceQuench, bs.Snoop, bs.SplitConnection}
	sizes := []units.ByteSize{128, 384, 576, 1024, 1536}
	f := func(schemeRaw, sizeRaw uint8, badRaw uint8, seed int64) bool {
		scheme := schemes[int(schemeRaw)%len(schemes)]
		size := sizes[int(sizeRaw)%len(sizes)]
		bad := time.Duration(badRaw%4+1) * time.Second
		cfg := WAN(scheme, size, bad)
		cfg.TransferSize = 30 * units.KB
		cfg.Seed = seed
		r, err := Run(cfg)
		if err != nil {
			t.Logf("Run(%v, %v, %v) error: %v", scheme, size, bad, err)
			return false
		}
		if !r.Completed {
			t.Logf("incomplete: %v/%v/%v seed %d", scheme, size, bad, seed)
			return false
		}
		g := r.Summary.Goodput
		if g <= 0 || g > 1.0000001 {
			t.Logf("goodput %v out of range (%v/%v)", g, scheme, size)
			return false
		}
		// Payload throughput can never beat the effective radio rate.
		if r.Summary.ThroughputKbps > float64(cfg.EffectiveWirelessRate())/1000+0.01 {
			t.Logf("throughput %v exceeds radio (%v/%v)", r.Summary.ThroughputKbps, scheme, size)
			return false
		}
		if r.Summary.Timeouts == 0 && r.Summary.FastRetransmits == 0 &&
			r.BS.ARQDiscards == 0 && r.Summary.RetransmittedBytes != 0 &&
			scheme != bs.SplitConnection && scheme != bs.Snoop {
			t.Logf("retransmissions with no loss events (%v/%v)", scheme, size)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAsymmetricChannelUplinkOnlyFades(t *testing.T) {
	// Downlink clean, uplink blacked out in windows: every data unit
	// crosses, but the link-level acks die in batches. The base station
	// cannot distinguish "data lost" from "ack lost", so uplink fading
	// still registers as unsuccessful attempts — EBSNs keep flowing (the
	// mechanism covers ack-path fading too) and the retransmissions of
	// already-delivered units surface as duplicates at the mobile host.
	clean := errmodel.Config{GoodBER: 0, BadBER: 0, MeanGood: time.Hour, MeanBad: 0}
	var fades []chaos.Blackout
	for at := 3 * time.Second; at < time.Minute; at += 6 * time.Second {
		fades = append(fades, chaos.Blackout{Link: chaos.WirelessUp, At: at, Length: 2 * time.Second})
	}

	var timeouts, ebsns, duplicates uint64
	for seed := int64(1); seed <= 3; seed++ {
		cfg := WAN(bs.EBSN, 576, 4*time.Second)
		cfg.Channel = clean
		cfg.Chaos = &chaos.Config{Blackouts: fades}
		cfg.TransferSize = 40 * units.KB
		cfg.Seed = seed
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatal("did not complete")
		}
		if r.WirelessDown.Corrupted != 0 {
			t.Fatalf("seed %d: the clean downlink corrupted %d units", seed, r.WirelessDown.Corrupted)
		}
		timeouts += r.Summary.Timeouts
		ebsns += r.BS.EBSNsSent
		duplicates += r.Mobile.DuplicateUnits
	}
	if ebsns == 0 {
		t.Error("uplink-only fading generated no EBSNs (lost link acks must look like failed attempts)")
	}
	if duplicates == 0 {
		t.Error("no duplicate units at the mobile host despite lost link acks")
	}
	// TCP acks are also lost in the same fades, yet cumulative acking
	// plus the EBSN stream keeps timeouts rare.
	if timeouts > 6 {
		t.Errorf("timeouts = %d across 3 runs, want few", timeouts)
	}
}

func TestSharedChannelFadesBothDirections(t *testing.T) {
	// With the default shared process, a fade that kills data also kills
	// acks: the uplink must record corruption in a bursty run.
	cfg := WAN(bs.Basic, 576, 4*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.WirelessUp.Corrupted == 0 {
		t.Error("uplink saw no corruption under a shared bursty channel")
	}
	if r.WirelessDown.Corrupted == 0 {
		t.Error("downlink saw no corruption under a shared bursty channel")
	}
}
