package cell

import (
	"runtime"
	"testing"
	"time"

	"wtcp/internal/units"
)

// The tests in this file pin the §2 scheduling study [Bhagwat 95] on its
// own configuration, LAN: several flows sharing one radio while their
// mobiles fade independently.

func TestSingleConnectionPoliciesAgree(t *testing.T) {
	// With one flow there is nothing to schedule around: FIFO and
	// round-robin must produce identical results for the same seed.
	fifo := LAN(1, FIFO, time.Second)
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
		t.Errorf("single-flow FIFO %.2f != RR %.2f kbps",
			rf.AggregateKbps, rrr.AggregateKbps)
	}
}

func TestSchedulingOrderingUnderIndependentFading(t *testing.T) {
	// The headline result of [Bhagwat 95], which the paper summarizes:
	// with several flows fading independently, RR beats FIFO and an
	// accurate CSDP beats RR. Averaged over seeds.
	agg := func(p Policy) float64 {
		var sum float64
		const n = 3
		for seed := int64(1); seed <= n; seed++ {
			cfg := LAN(4, p, time.Second)
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
			cfg := LAN(4, CSDP, time.Second)
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
	cfg := LAN(4, FIFO, time.Second)
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
	cfg := LAN(4, CSDP, time.Second)
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
	cfg := LAN(4, RoundRobin, time.Second)
	cfg.TransferSize = 128 * units.KB
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fairness <= 0.25 || r.Fairness > 1.0000001 {
		t.Errorf("Jain fairness = %v, want in (1/n, 1]", r.Fairness)
	}
	if len(r.Flows) != 4 {
		t.Fatalf("Flows = %d entries", len(r.Flows))
	}
	for i, f := range r.Flows {
		if !f.Completed || f.Elapsed <= 0 {
			t.Errorf("flow %d: %+v", i, f)
		}
	}
}

func TestErrorFreeChannelSharesRadioFully(t *testing.T) {
	cfg := LAN(4, RoundRobin, time.Second)
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

// TestSmallRunSetUpIsSmall bounds what a four-flow LAN run allocates: a
// channel per flow and the default 4 h horizon. An engine that draws every
// channel's fading timeline out to the horizon before the first packet
// allocates 1.5 MB here (~6 400 intervals per flow), one that extends
// timelines on demand about 120 KB, most of it the timer wheel's fixed
// bucket slab.
func TestSmallRunSetUpIsSmall(t *testing.T) {
	const ceiling = 256 << 10
	cfg := LAN(4, CSDP, time.Second)
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
		t.Errorf("a 4-flow run allocated %d bytes, ceiling %d", got, ceiling)
	}
}

// TestEBSNComposesWithScheduling verifies the extension beyond both
// original studies: adding EBSN to the shared-radio scenario reduces
// source timeouts under every scheduling policy, and most dramatically
// under FIFO, whose long head-of-line stalls are exactly the condition
// that fires source timers.
func TestEBSNComposesWithScheduling(t *testing.T) {
	run := func(p Policy, ebsn bool) (timeouts uint64, agg float64) {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := LAN(4, p, time.Second)
			cfg.TransferSize = 256 * units.KB
			cfg.EBSN = ebsn
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v/ebsn=%v seed %d did not complete", p, ebsn, seed)
			}
			timeouts += r.TotalTimeouts
			agg += r.AggregateKbps / 3
			if ebsn && r.EBSNsSent == 0 && r.RadioAttempts > 100 {
				t.Errorf("%v: EBSN enabled but none sent", p)
			}
			if !ebsn && r.EBSNsSent != 0 {
				t.Errorf("%v: EBSN disabled but %d sent", p, r.EBSNsSent)
			}
		}
		return timeouts, agg
	}
	for _, p := range []Policy{FIFO, RoundRobin} {
		plainTO, plainAgg := run(p, false)
		ebsnTO, ebsnAgg := run(p, true)
		if ebsnTO > plainTO {
			t.Errorf("%v: EBSN timeouts %d above plain %d", p, ebsnTO, plainTO)
		}
		if plainTO > 0 && ebsnAgg < plainAgg*0.95 {
			t.Errorf("%v: EBSN aggregate %.0f well below plain %.0f", p, ebsnAgg, plainAgg)
		}
	}
}

// TestEBSNFIFOTimeoutReduction: FIFO + fades stall every flow for seconds
// at a time; EBSN must remove a large share of the resulting timeouts.
// It logs the mean timeouts per run with and without EBSN (-v).
func TestEBSNFIFOTimeoutReduction(t *testing.T) {
	const reps = 3
	var plain, withEBSN uint64
	for seed := int64(1); seed <= reps; seed++ {
		cfg := LAN(4, FIFO, 1500*time.Millisecond)
		cfg.TransferSize = 256 * units.KB
		cfg.Seed = seed
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain += r.TotalTimeouts
		cfg.EBSN = true
		re, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		withEBSN += re.TotalTimeouts
	}
	t.Logf("4 flows, FIFO, 256KB each, mean bad 1.5s, %d seeds: %.1f source timeouts per run without EBSN, %.1f with",
		reps, float64(plain)/reps, float64(withEBSN)/reps)
	if plain == 0 {
		t.Fatal("no baseline timeouts on these fixed seeds: the premise is lost")
	}
	if withEBSN*2 > plain {
		t.Errorf("EBSN removed too few timeouts: %d -> %d", plain, withEBSN)
	}
}
