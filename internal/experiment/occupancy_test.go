package experiment

import (
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/tcp"
)

// occupancy is the high-water mark of each per-packet working set.
type occupancy struct{ held, snoop, reorder, open, sink int }

func (o *occupancy) raise(r *core.Result) {
	o.held = max(o.held, r.BS.HeldPeak)
	o.snoop = max(o.snoop, r.BS.SnoopCachePeak)
	o.reorder = max(o.reorder, r.Mobile.ReorderPeak)
	o.open = max(o.open, r.Mobile.ReassemblyOpenPeak)
	o.sink = max(o.sink, r.Sink.BufferedPeak)
}

// TestWorkingSetsStaySmall makes the sizing premise of queue.Table a
// tested number: over the paper's WAN grid (Fig 7+8: 12 sizes x 4 bad
// periods x basic/EBSN) and the LAN protocol zoo (4 variants x 4 schemes)
// every working set a packet touches stays inside its structural bound —
// the station's hold queue, the snoop cache cap, the advertised window —
// and none exceeds a few dozen entries, which is what makes a sorted
// slice searched from its ends the right structure. The grid maxima at
// seed 1 are pinned exactly (they are what DESIGN.md quotes); a protocol
// change that moves the goldens moves these too — re-read them from the
// failure message.
func TestWorkingSetsStaySmall(t *testing.T) {
	const (
		holdQueue = 50 // core wires bs.Config.QueueLimit = 50 per flow
		fewDozen  = 64 // beyond this a linear probe would need rethinking
	)
	check := func(cfg core.Config, into *occupancy) {
		t.Helper()
		r, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v/%v/%v: %v", cfg.Scheme, cfg.PacketSize, cfg.Variant, err)
		}
		window := int((cfg.Window + cfg.MSS() - 1) / cfg.MSS())
		switch {
		case r.BS.HeldPeak > holdQueue:
			t.Errorf("%v: %d packets held, hold queue is %d", cfg.Scheme, r.BS.HeldPeak, holdQueue)
		case r.BS.SnoopCachePeak > bs.DefaultSnoopMaxCached:
			t.Errorf("%v: %d segments cached, cap is %d", cfg.Scheme, r.BS.SnoopCachePeak, bs.DefaultSnoopMaxCached)
		case r.Sink.BufferedPeak > window:
			t.Errorf("%v/%v: sink buffered %d segments, the advertised window holds %d", cfg.Scheme, cfg.PacketSize, r.Sink.BufferedPeak, window)
		case r.Mobile.ReorderPeak > fewDozen || r.Mobile.ReassemblyOpenPeak > fewDozen:
			t.Errorf("%v/%v: reorder buffer %d, open groups %d", cfg.Scheme, cfg.PacketSize, r.Mobile.ReorderPeak, r.Mobile.ReassemblyOpenPeak)
		}
		into.raise(r)
	}
	var wan, lan occupancy
	for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
		for _, bad := range WANBadPeriods {
			for _, size := range PacketSizes {
				check(core.WAN(scheme, size, bad), &wan)
			}
		}
	}
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
			cfg := core.LAN(scheme, 800*time.Millisecond)
			cfg.Variant = v
			check(cfg, &lan)
		}
	}
	if want := (occupancy{held: 46, reorder: 32, open: 10, sink: 45}); wan != want {
		t.Errorf("WAN grid maxima = %+v, want %+v", wan, want)
	}
	if want := (occupancy{held: 44, snoop: 43, reorder: 21, sink: 42}); lan != want {
		t.Errorf("LAN zoo maxima = %+v, want %+v", lan, want)
	}
}
