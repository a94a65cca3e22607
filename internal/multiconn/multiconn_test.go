package multiconn

import (
	"runtime"
	"testing"
	"time"

	"wtcp/internal/units"
)

func TestConfigValidate(t *testing.T) {
	base := LANDefaults(4, RoundRobin, time.Second)
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero connections", func(c *Config) { c.Connections = 0 }},
		{"bad policy", func(c *Config) { c.Policy = 0 }},
		{"packet below header", func(c *Config) { c.PacketSize = 40 }},
		{"zero transfer", func(c *Config) { c.TransferSize = 0 }},
		{"window below segment", func(c *Config) { c.Window = 100 }},
		{"zero wired rate", func(c *Config) { c.WiredRate = 0 }},
		{"accuracy above one", func(c *Config) { c.PredictorAccuracy = 1.5 }},
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

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || RoundRobin.String() != "roundrobin" || CSDP.String() != "csdp" {
		t.Error("policy names")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}

func TestSingleConnectionPoliciesAgree(t *testing.T) {
	// With one connection there is nothing to schedule around: FIFO and
	// round-robin must produce identical results for the same seed.
	fifo := LANDefaults(1, FIFO, time.Second)
	fifo.TransferSize = 256 * units.KB
	rf, err := Run(fifo)
	if err != nil {
		t.Fatal(err)
	}
	rr := fifo
	rr.Policy = RoundRobin
	rrr, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	if rf.AggregateKbps != rrr.AggregateKbps {
		t.Errorf("single-connection FIFO %.2f != RR %.2f kbps",
			rf.AggregateKbps, rrr.AggregateKbps)
	}
}

func TestSchedulingOrderingUnderIndependentFading(t *testing.T) {
	// The headline result of [Bhagwat 95], which the paper summarizes:
	// with several connections fading independently, RR beats FIFO and
	// an accurate CSDP beats RR. Averaged over seeds.
	agg := func(p Policy) float64 {
		var sum float64
		const n = 3
		for seed := int64(1); seed <= n; seed++ {
			cfg := LANDefaults(4, p, time.Second)
			cfg.TransferSize = 256 * units.KB
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v seed %d did not complete", p, seed)
			}
			sum += r.AggregateKbps
		}
		return sum / n
	}
	fifo := agg(FIFO)
	rr := agg(RoundRobin)
	csdp := agg(CSDP)
	if !(rr > fifo) {
		t.Errorf("RR %.0f kbps not above FIFO %.0f kbps", rr, fifo)
	}
	if !(csdp >= rr*0.98) {
		t.Errorf("CSDP %.0f kbps clearly below RR %.0f kbps", csdp, rr)
	}
	if !(csdp > fifo) {
		t.Errorf("CSDP %.0f kbps not above FIFO %.0f kbps", csdp, fifo)
	}
}

func TestPredictorAccuracyMatters(t *testing.T) {
	// The study's main limitation: CSDP's benefit degrades with predictor
	// accuracy. A coin-flip predictor should do no better than an
	// oracle.
	run := func(acc float64) float64 {
		var sum float64
		for seed := int64(1); seed <= 3; seed++ {
			cfg := LANDefaults(4, CSDP, time.Second)
			cfg.TransferSize = 256 * units.KB
			cfg.PredictorAccuracy = acc
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.AggregateKbps
		}
		return sum / 3
	}
	oracle := run(1.0)
	coin := run(0.5)
	if coin > oracle {
		t.Errorf("coin-flip predictor %.0f kbps beat the oracle %.0f kbps", coin, oracle)
	}
}

func TestFIFOHeadOfLineBlockingVisible(t *testing.T) {
	// FIFO burns radio attempts retrying a fading head while others
	// starve; RR spends fewer attempts for more delivered throughput.
	cfg := LANDefaults(4, FIFO, time.Second)
	cfg.TransferSize = 256 * units.KB
	rf, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = RoundRobin
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rf.RadioAttempts <= rr.RadioAttempts {
		t.Errorf("FIFO attempts %d not above RR attempts %d (no HOL waste visible)",
			rf.RadioAttempts, rr.RadioAttempts)
	}
	if rf.RadioDiscards < rr.RadioDiscards {
		t.Errorf("FIFO discards %d below RR discards %d", rf.RadioDiscards, rr.RadioDiscards)
	}
}

func TestCSDPSkipsBadChannels(t *testing.T) {
	// Full-length transfers: short runs may not meet a fade at all
	// (mean good period is 4 s).
	cfg := LANDefaults(4, CSDP, time.Second)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedBad == 0 {
		t.Error("oracle CSDP never skipped a bad channel under bursty fading")
	}
	cfg.Policy = RoundRobin
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.SkippedBad != 0 {
		t.Error("RR recorded skip decisions")
	}
}

func TestFairnessIndex(t *testing.T) {
	cfg := LANDefaults(4, RoundRobin, time.Second)
	cfg.TransferSize = 128 * units.KB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fairness <= 0.25 || r.Fairness > 1.0000001 {
		t.Errorf("Jain fairness = %v, want in (1/n, 1]", r.Fairness)
	}
	if len(r.PerConn) != 4 {
		t.Fatalf("PerConn = %d entries", len(r.PerConn))
	}
	for i, c := range r.PerConn {
		if !c.Completed || c.ThroughputKbps <= 0 {
			t.Errorf("conn %d: %+v", i, c)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := LANDefaults(3, CSDP, 800*time.Millisecond)
	cfg.TransferSize = 128 * units.KB
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggregateKbps != b.AggregateKbps || a.RadioAttempts != b.RadioAttempts {
		t.Error("same seed diverged")
	}
}

func TestErrorFreeChannelSharesRadioFully(t *testing.T) {
	cfg := LANDefaults(4, RoundRobin, time.Second)
	cfg.Channel.GoodBER = 0
	cfg.Channel.BadBER = 0
	cfg.TransferSize = 128 * units.KB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("error-free run did not complete")
	}
	// Aggregate bounded by the radio's effective capacity; stop-and-wait
	// per 1536B packet: tx 6.1ms + ack 0.16ms + 2ms prop ~ 8.3ms/packet
	// ~ 1.47 Mbps of payload.
	if r.AggregateKbps < 1200 || r.AggregateKbps > 2000 {
		t.Errorf("error-free aggregate = %.0f kbps", r.AggregateKbps)
	}
	if r.Fairness < 0.99 {
		t.Errorf("error-free fairness = %v, want ~1", r.Fairness)
	}
	if r.RadioDiscards != 0 {
		t.Errorf("discards on a clean channel: %d", r.RadioDiscards)
	}
}

// TestSmallRunSetUpIsSmall bounds what a four-connection run allocates.
// Run delegates to the cell engine with a channel per connection and the
// default 4 h horizon; an engine that draws every channel's fading
// timeline out to the horizon before the first packet allocates 1.5 MB
// here (~6 400 intervals per connection), one that extends timelines on
// demand about 120 KB, most of it the timer wheel's fixed bucket slab.
func TestSmallRunSetUpIsSmall(t *testing.T) {
	const ceiling = 256 << 10
	cfg := LANDefaults(4, CSDP, time.Second)
	if _, err := Run(cfg); err != nil { // warm the kernel pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Completed {
		t.Fatalf("run: completed %v, err %v", res != nil && res.Completed, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("a 4-connection run allocated %d bytes, ceiling %d", got, ceiling)
	}
}
