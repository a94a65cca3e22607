package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/errmodel"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

func TestWANPresetMatchesPaper(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 2*time.Second)
	if cfg.WiredRate != 56*units.Kbps {
		t.Errorf("wired rate = %v", cfg.WiredRate)
	}
	if cfg.WirelessRate != 19200 {
		t.Errorf("wireless rate = %v", cfg.WirelessRate)
	}
	if cfg.WirelessOverhead != 1.5 {
		t.Errorf("overhead = %v", cfg.WirelessOverhead)
	}
	if cfg.MTU != 128 {
		t.Errorf("MTU = %v", cfg.MTU)
	}
	if cfg.Window != 4*units.KB {
		t.Errorf("window = %v", cfg.Window)
	}
	if cfg.TransferSize != 100*units.KB {
		t.Errorf("transfer = %v", cfg.TransferSize)
	}
	if cfg.MSS() != 536 {
		t.Errorf("MSS = %v", cfg.MSS())
	}
	if got := cfg.EffectiveWirelessRate(); got != 12800 {
		t.Errorf("effective rate = %v, want 12.8kbps", got)
	}
	if cfg.Channel.MeanGood != 10*time.Second || cfg.Channel.MeanBad != 2*time.Second {
		t.Errorf("channel = %+v", cfg.Channel)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLANPresetMatchesPaper(t *testing.T) {
	cfg := LAN(bs.EBSN, 800*time.Millisecond)
	if cfg.WiredRate != 10*units.Mbps || cfg.WirelessRate != 2*units.Mbps {
		t.Errorf("rates = %v / %v", cfg.WiredRate, cfg.WirelessRate)
	}
	if cfg.MTU != 0 {
		t.Error("LAN preset must not fragment")
	}
	if cfg.Window != 64*units.KB || cfg.PacketSize != 1536 {
		t.Errorf("window/packet = %v / %v", cfg.Window, cfg.PacketSize)
	}
	if cfg.TransferSize != 4*units.MB {
		t.Errorf("transfer = %v", cfg.TransferSize)
	}
	if cfg.Channel.MeanGood != 4*time.Second {
		t.Errorf("mean good = %v", cfg.Channel.MeanGood)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := WAN(bs.Basic, 576, time.Second)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"packet size at header", func(c *Config) { c.PacketSize = 40 }},
		{"zero transfer", func(c *Config) { c.TransferSize = 0 }},
		{"window below segment", func(c *Config) { c.Window = 100 }},
		{"zero wired rate", func(c *Config) { c.WiredRate = 0 }},
		{"zero wireless rate", func(c *Config) { c.WirelessRate = 0 }},
		{"negative overhead", func(c *Config) { c.WirelessOverhead = -1 }},
		{"negative MTU", func(c *Config) { c.MTU = -5 }},
		{"bad channel", func(c *Config) { c.Channel.MeanGood = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted invalid config")
			}
		})
	}
}

func TestTheoreticalMaxMatchesPaperValues(t *testing.T) {
	// Paper §5.1: tput_th = (lambda_bg/(lambda_bg+lambda_gb)) * tput_max
	// with tput_max = 12.8 kbps; for bad=1s, good=10s that's ~11.64.
	tests := []struct {
		bad  time.Duration
		want float64
	}{
		{1 * time.Second, 12.8 * 10 / 11},
		{2 * time.Second, 12.8 * 10 / 12},
		{3 * time.Second, 12.8 * 10 / 13},
		{4 * time.Second, 12.8 * 10 / 14},
	}
	for _, tt := range tests {
		cfg := WAN(bs.Basic, 576, tt.bad)
		if got := cfg.TheoreticalMaxKbps(); math.Abs(got-tt.want) > 0.01 {
			t.Errorf("tput_th(bad=%v) = %.3f, want %.3f", tt.bad, got, tt.want)
		}
	}
	// LAN: tput_max = 2 Mbps.
	lan := LAN(bs.Basic, time.Second)
	want := 2000.0 * 4 / 5
	if got := lan.TheoreticalMaxKbps(); math.Abs(got-want) > 0.5 {
		t.Errorf("LAN tput_th = %.1f, want %.1f", got, want)
	}
}

func TestErrorFreeRunApproachesCeiling(t *testing.T) {
	cfg := WAN(bs.Basic, 576, time.Second)
	cfg.Channel.GoodBER = 0
	cfg.Channel.BadBER = 0
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("error-free run did not complete")
	}
	// Payload-only ceiling for 576-byte packets: 12.8 * 536/576 ~ 11.91.
	if r.Summary.ThroughputKbps < 11.6 || r.Summary.ThroughputKbps > 11.95 {
		t.Errorf("error-free throughput = %.2f kbps, want ~11.91", r.Summary.ThroughputKbps)
	}
	if r.Summary.Goodput < 0.999 {
		t.Errorf("error-free goodput = %.4f, want 1.0", r.Summary.Goodput)
	}
	if r.Summary.Timeouts != 0 {
		t.Errorf("error-free run had %d timeouts", r.Summary.Timeouts)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.Seed = 42
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Elapsed == c.Summary.Elapsed && a.Summary.RetransmittedBytes == c.Summary.RetransmittedBytes {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestSchemeOrderingWAN(t *testing.T) {
	// The paper's headline ordering at a fixed error condition: EBSN >=
	// local recovery > basic, and EBSN goodput ~= 1. Averaged over a few
	// seeds to avoid flakiness.
	mean := func(scheme bs.Scheme) (tput, goodput float64) {
		const n = 3
		for seed := int64(1); seed <= n; seed++ {
			cfg := WAN(scheme, 576, 2*time.Second)
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v run with seed %d did not complete", scheme, seed)
			}
			tput += r.Summary.ThroughputKbps / n
			goodput += r.Summary.Goodput / n
		}
		return tput, goodput
	}
	basicT, _ := mean(bs.Basic)
	localT, _ := mean(bs.LocalRecovery)
	ebsnT, ebsnG := mean(bs.EBSN)
	if !(ebsnT >= localT && localT > basicT) {
		t.Errorf("ordering violated: ebsn=%.2f local=%.2f basic=%.2f", ebsnT, localT, basicT)
	}
	if ebsnG < 0.97 {
		t.Errorf("EBSN goodput = %.3f, want ~1.0", ebsnG)
	}
	// tput_th is a long-run expectation; a finite run can realize a
	// luckier channel, so allow modest excess.
	th := WAN(bs.EBSN, 576, 2*time.Second).TheoreticalMaxKbps()
	if ebsnT > th*1.15 {
		t.Errorf("EBSN throughput %.2f far above theoretical max %.2f", ebsnT, th)
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 4*time.Second)
	cfg.Channel.Deterministic = true
	cfg.CollectTrace = true
	cfg.TransferSize = 30 * units.KB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("trace not collected")
	}
	if r.Trace.Count(0) != 0 {
	} // silence lint-ish nothing
	sends := len(r.Trace.Events())
	if sends == 0 {
		t.Fatal("trace empty")
	}
	// Without tracing enabled the field is nil.
	cfg.CollectTrace = false
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Trace != nil {
		t.Error("trace collected when disabled")
	}
}

func TestCwndEvolutionBasicVsEBSN(t *testing.T) {
	// The window-evolution view of Figures 3 vs 5: under the
	// deterministic fade schedule, basic TCP's congestion window
	// collapses to one segment repeatedly, while EBSN's never does.
	run := func(scheme bs.Scheme) trace.CwndSeries {
		cfg := WAN(scheme, 576, 4*time.Second)
		cfg.Channel.Deterministic = true
		cfg.CollectTrace = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cw := r.Trace.Cwnd()
		if len(cw) == 0 {
			t.Fatal("no cwnd series collected")
		}
		return cw
	}
	basic := run(bs.Basic)
	ebsn := run(bs.EBSN)
	if got := basic.Collapses(536); got < 3 {
		t.Errorf("basic TCP cwnd collapses = %d, want several (one per fade)", got)
	}
	if got := ebsn.Collapses(536); got != 0 {
		t.Errorf("EBSN cwnd collapses = %d, want 0", got)
	}
	if ebsn.Max() < basic.Max() {
		t.Errorf("EBSN max window %d below basic %d", ebsn.Max(), basic.Max())
	}
}

// TestRunsShareTheChannel pins the premise of every paired comparison of
// schemes or packet sizes: at a fixed (bad, seed) with no fault plan, the
// Markov channel a run wires to its wireless links is the rebuild
// errmodel.NewMarkov(cfg.Channel, sim.NewRNG(seed).Split()), with the same
// state intervals after the run has queried it, whatever the scheme or
// packet size.
func TestRunsShareTheChannel(t *testing.T) {
	const (
		bad  = 2 * time.Second
		seed = 7
		span = 600 * time.Second
	)
	runs := map[string]Config{}
	for _, s := range bs.Schemes() {
		for _, size := range []units.ByteSize{128, 576, 1536} {
			runs[fmt.Sprintf("WAN %v %v", s, size)] = WAN(s, size, bad)
		}
		runs[fmt.Sprintf("LAN %v", s)] = LAN(s, bad)
	}
	for name, cfg := range runs {
		cfg.Seed, cfg.Horizon = seed, DefaultHorizon
		tp, err := newTopology(cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done := tp.sender.Done
		if tp.relay != nil {
			done = tp.relay.sender.Done
		}
		if _, err := tp.run(context.Background(), cfg, done); err != nil || !done() {
			t.Fatalf("%s: run did not finish: %v", name, err)
		}
		rebuilt, err := errmodel.NewMarkov(cfg.Channel, sim.NewRNG(seed).Split())
		if err != nil {
			t.Fatal(err)
		}
		got, want := tp.channel.Intervals(span), rebuilt.Intervals(span)
		if !slices.Equal(got, want) {
			t.Errorf("%s: the run's channel has %d intervals over %v, the rebuild %d; first %v vs %v",
				name, len(got), span, len(want), got[:min(3, len(got))], want[:min(3, len(want))])
		}
		if _, err := tp.release(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestHorizonStopsPathologicalRun(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 30*time.Second) // mostly-bad channel
	cfg.Channel.MeanGood = time.Second
	cfg.Horizon = 30 * time.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed {
		t.Fatal("transfer completed within the horizon on this fixed seed: the premise is lost")
	}
	if r.Summary.Elapsed < 30*time.Second {
		t.Errorf("elapsed = %v, want horizon reached", r.Summary.Elapsed)
	}
}

// TestHorizonIsNotOvershot: a run whose completing event lies 1 ns past
// the horizon does not complete, and its clock stops at the horizon — the
// run loop used to fire whatever came next once the clock was short of
// the horizon, however late. The handoff plan is the mobility study's
// scenario, whose own loop overshot the same way.
func TestHorizonIsNotOvershot(t *testing.T) {
	handoff := LAN(bs.Basic, 800*time.Millisecond)
	handoff.TransferSize = units.MB
	handoff.Chaos = &chaos.Config{Handoff: &chaos.Handoff{Dwell: time.Second, Gap: 100 * time.Millisecond, DupAcks: true}}
	for name, cfg := range map[string]Config{
		"wan-ebsn":    WAN(bs.EBSN, 576, time.Second),
		"lan-handoff": handoff,
	} {
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Completed {
			t.Fatalf("%s: reference run did not complete", name)
		}
		cfg.Horizon = full.Summary.Elapsed - time.Nanosecond
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed || r.Summary.Elapsed != cfg.Horizon {
			t.Errorf("%s: horizon %v: completed=%v elapsed=%v, want not completed at the horizon",
				name, cfg.Horizon, r.Completed, r.Summary.Elapsed)
		}
	}
}

func TestLANRunCompletesAndOrdersSchemes(t *testing.T) {
	run := func(scheme bs.Scheme) *Result {
		cfg := LAN(scheme, 800*time.Millisecond)
		cfg.TransferSize = units.MB // quarter-size for test speed
		cfg.Seed = 5
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%v LAN run did not complete", scheme)
		}
		return r
	}
	basic := run(bs.Basic)
	ebsn := run(bs.EBSN)
	if ebsn.Summary.ThroughputMbps <= basic.Summary.ThroughputMbps {
		t.Errorf("LAN EBSN %.3f Mbps not above basic %.3f Mbps",
			ebsn.Summary.ThroughputMbps, basic.Summary.ThroughputMbps)
	}
	if ebsn.Summary.Goodput < 0.98 {
		t.Errorf("LAN EBSN goodput = %.3f", ebsn.Summary.Goodput)
	}
	if basic.Summary.RetransmittedBytes <= ebsn.Summary.RetransmittedBytes {
		t.Error("basic should retransmit more than EBSN on the LAN")
	}
}

func TestQuenchDoesNotPreventTimeouts(t *testing.T) {
	// The paper's negative result: source quench reduces inflight data
	// but timeouts persist. Compare against EBSN under identical
	// conditions.
	var quenchTimeouts, ebsnTimeouts uint64
	for seed := int64(1); seed <= 3; seed++ {
		q := WAN(bs.SourceQuench, 576, 4*time.Second)
		q.Seed = seed
		rq, err := Run(q)
		if err != nil {
			t.Fatal(err)
		}
		quenchTimeouts += rq.Summary.Timeouts
		e := WAN(bs.EBSN, 576, 4*time.Second)
		e.Seed = seed
		re, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		ebsnTimeouts += re.Summary.Timeouts
	}
	if quenchTimeouts == 0 {
		t.Error("quench eliminated all timeouts (paper says it cannot)")
	}
	if ebsnTimeouts >= quenchTimeouts {
		t.Errorf("EBSN timeouts %d not below quench timeouts %d", ebsnTimeouts, quenchTimeouts)
	}
}

func TestRenoAblationRuns(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 2*time.Second)
	cfg.Variant = tcp.Reno
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("Reno run did not complete")
	}
}

func TestResultExposesComponentStats(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.BS.ARQAttempts == 0 {
		t.Error("no ARQ attempts recorded")
	}
	if r.Mobile.LinkAcksSent == 0 {
		t.Error("no link acks recorded")
	}
	if r.WirelessDown.Sent == 0 || r.WirelessUp.Sent == 0 {
		t.Error("wireless link stats empty")
	}
	if r.Sink.SegmentsReceived == 0 {
		t.Error("sink stats empty")
	}
	if r.BS.EBSNsSent == 0 {
		t.Error("EBSN scheme sent no EBSNs under a bursty channel")
	}
	if r.Sender.EBSNResets == 0 {
		t.Error("sender never processed an EBSN")
	}
}
