// Package wtcp_test holds the repository-level benchmark harness: one
// benchmark per paper figure (3-5, 7-11), regenerating the figure's series
// and reporting its headline quantity as a custom metric, plus ablation
// benchmarks for the design choices DESIGN.md calls out and
// micro-benchmarks of the simulation substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks use reduced sweeps (fewer replications and
// points) so an iteration stays sub-second; `wtcp figures` regenerates
// the full-resolution figures.
package wtcp_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/cell"
	"wtcp/internal/core"
	"wtcp/internal/errmodel"
	"wtcp/internal/experiment"
	"wtcp/internal/oracle"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// benchOpts are the reduced sweep settings used by figure benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{
		Replications: 2,
		Transfer:     40 * units.KB,
		PacketSizes:  []units.ByteSize{128, 512, 1536},
		BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
	}
}

// BenchmarkFig3Trace regenerates Figure 3 (basic TCP packet trace over the
// deterministic channel) and reports the source timeout count.
func BenchmarkFig3Trace(b *testing.B) {
	var timeouts uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.TraceFigure(bs.Basic, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		timeouts = r.Summary.Timeouts
	}
	b.ReportMetric(float64(timeouts), "timeouts")
}

// BenchmarkFig4Trace regenerates Figure 4 (local recovery trace).
func BenchmarkFig4Trace(b *testing.B) {
	var timeouts uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.TraceFigure(bs.LocalRecovery, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		timeouts = r.Summary.Timeouts
	}
	b.ReportMetric(float64(timeouts), "timeouts")
}

// BenchmarkFig5Trace regenerates Figure 5 (EBSN trace); the reported
// metric should be zero, the paper's headline.
func BenchmarkFig5Trace(b *testing.B) {
	var timeouts uint64
	for i := 0; i < b.N; i++ {
		r, err := experiment.TraceFigure(bs.EBSN, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		timeouts = r.Summary.Timeouts
	}
	b.ReportMetric(float64(timeouts), "timeouts")
}

// BenchmarkFig7 regenerates the basic-TCP packet-size sweep and reports
// the best mean throughput at bad=1s.
func BenchmarkFig7(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.Fig7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		_, best = experiment.OptimalPacketSize(points, time.Second)
	}
	b.ReportMetric(best, "kbps@bad=1s")
}

// BenchmarkFig8 regenerates the EBSN packet-size sweep and reports the
// large-packet throughput at bad=4s (the paper's 100%-improvement point).
func BenchmarkFig8(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.Fig8(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.BadPeriod == 4*time.Second && p.PacketSize == 1536 {
				tput = p.ThroughputKbps.Mean()
			}
		}
	}
	b.ReportMetric(tput, "kbps@1536B,bad=4s")
}

// BenchmarkFig9 regenerates the retransmitted-data comparison and reports
// the basic-minus-EBSN gap at 1536B/bad=4s in KB.
func BenchmarkFig9(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.Fig9(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var basicKB, ebsnKB float64
		for _, p := range points {
			if p.BadPeriod == 4*time.Second && p.PacketSize == 1536 {
				switch p.Scheme {
				case bs.Basic:
					basicKB = p.RetransKB.Mean()
				case bs.EBSN:
					ebsnKB = p.RetransKB.Mean()
				}
			}
		}
		gap = basicKB - ebsnKB
	}
	b.ReportMetric(gap, "retransKB-gap")
}

// BenchmarkFig10 regenerates the LAN throughput comparison and reports
// EBSN's relative improvement over basic at bad=800ms.
func BenchmarkFig10(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.LANStudy(context.Background(), experiment.Options{
			Replications: 2,
			Transfer:     units.MB,
			BadPeriods:   []time.Duration{800 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		var basicM, ebsnM float64
		for _, p := range points {
			switch p.Scheme {
			case bs.Basic:
				basicM = p.ThroughputMbps.Mean()
			case bs.EBSN:
				ebsnM = p.ThroughputMbps.Mean()
			}
		}
		improvement = 100 * (ebsnM - basicM) / basicM
	}
	b.ReportMetric(improvement, "%improvement")
}

// BenchmarkFig11 regenerates the LAN retransmitted-data comparison and
// reports basic TCP's retransmitted volume at bad=800ms (EBSN's is ~0).
func BenchmarkFig11(b *testing.B) {
	var basicKB float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.LANStudy(context.Background(), experiment.Options{
			Replications: 2,
			Transfer:     units.MB,
			BadPeriods:   []time.Duration{800 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Scheme == bs.Basic {
				basicKB = p.RetransKB.Mean()
			}
		}
	}
	b.ReportMetric(basicKB, "basic-retransKB")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationTahoeVsReno compares the source variants under the WAN
// preset; the metric is Reno's throughput advantage in percent.
func BenchmarkAblationTahoeVsReno(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		run := func(v tcp.Variant) float64 {
			cfg := core.WAN(bs.Basic, 576, 2*time.Second)
			cfg.Variant = v
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		tahoe := run(tcp.Tahoe)
		reno := run(tcp.Reno)
		adv = 100 * (reno - tahoe) / tahoe
	}
	b.ReportMetric(adv, "%reno-advantage")
}

// BenchmarkAblationClockGranularity compares the paper's 100 ms TCP clock
// against a 500 ms BSD-style clock under local recovery — the coarse
// clock hides the spurious-timeout problem EBSN exists to fix.
func BenchmarkAblationClockGranularity(b *testing.B) {
	var fineTO, coarseTO float64
	for i := 0; i < b.N; i++ {
		run := func(g time.Duration) float64 {
			cfg := core.WAN(bs.LocalRecovery, 576, 4*time.Second)
			cfg.Granularity = g
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(r.Summary.Timeouts)
		}
		fineTO = run(100 * time.Millisecond)
		coarseTO = run(500 * time.Millisecond)
	}
	b.ReportMetric(fineTO, "timeouts@100ms")
	b.ReportMetric(coarseTO, "timeouts@500ms")
}

// BenchmarkAblationARQWindow sweeps the local-recovery pipeline depth; the
// metric is the stop-and-wait (window 1) throughput penalty in percent.
func BenchmarkAblationARQWindow(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		run := func(w int) float64 {
			cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
			cfg.ARQ.Window = w
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		w1 := run(1)
		w4 := run(4)
		penalty = 100 * (w4 - w1) / w4
	}
	b.ReportMetric(penalty, "%stopandwait-penalty")
}

// BenchmarkAblationSnoopVsLocalRecovery compares the related-work snoop
// baseline against the paper's link-level recovery under bursty loss.
func BenchmarkAblationSnoopVsLocalRecovery(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		run := func(s bs.Scheme) float64 {
			cfg := core.WAN(s, 576, 4*time.Second)
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		gap = run(bs.LocalRecovery) - run(bs.Snoop)
	}
	b.ReportMetric(gap, "kbps-gap")
}

// BenchmarkRelatedWorkCSDP regenerates the §2 scheduling comparison
// [Bhagwat 95]: the metric is round-robin's aggregate-throughput advantage
// over FIFO in percent, with CSDP's shown alongside.
func BenchmarkRelatedWorkCSDP(b *testing.B) {
	var rrAdv, csdpAdv float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.CSDPStudy(context.Background(),
			experiment.Options{Replications: 2, Transfer: 256 * units.KB},
			experiment.CSDPOptions{Connections: 4, BadPeriods: []time.Duration{time.Second}})
		if err != nil {
			b.Fatal(err)
		}
		vals := map[string]float64{}
		for _, p := range points {
			vals[p.Policy.String()] = p.AggregateKbps.Mean()
		}
		rrAdv = 100 * (vals["roundrobin"] - vals["fifo"]) / vals["fifo"]
		csdpAdv = 100 * (vals["csdp"] - vals["fifo"]) / vals["fifo"]
	}
	b.ReportMetric(rrAdv, "%rr-over-fifo")
	b.ReportMetric(csdpAdv, "%csdp-over-fifo")
}

// BenchmarkFutureWorkCongestion runs the congested-wire study and reports
// EBSN's advantage over basic TCP while the wired link carries 60%
// cross-traffic load (the paper's §6 future-work scenario).
func BenchmarkFutureWorkCongestion(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		points, err := experiment.CongestionStudy(context.Background(),
			experiment.Options{Replications: 2, Transfer: 40 * units.KB})
		if err != nil {
			b.Fatal(err)
		}
		var basicT, ebsnT float64
		for _, p := range points {
			switch {
			case p.LoadFraction != 0.6:
			case p.Scheme == bs.Basic:
				basicT = p.ThroughputKbps.Mean()
			case p.Scheme == bs.EBSN:
				ebsnT = p.ThroughputKbps.Mean()
			}
		}
		adv = 100 * (ebsnT - basicT) / basicT
	}
	b.ReportMetric(adv, "%ebsn-advantage@60%load")
}

// BenchmarkAblationEBSNNotifyRate thins the EBSN stream (every 4th failed
// attempt) and reports the timeout count that reappears versus
// every-attempt notification.
func BenchmarkAblationEBSNNotifyRate(b *testing.B) {
	var dense, sparse float64
	for i := 0; i < b.N; i++ {
		run := func(every int) float64 {
			cfg := core.WAN(bs.EBSN, 576, 4*time.Second)
			cfg.NotifyEvery = every
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(r.Summary.Timeouts)
		}
		dense = run(1)
		sparse = run(4)
	}
	b.ReportMetric(dense, "timeouts@every1")
	b.ReportMetric(sparse, "timeouts@every4")
}

// BenchmarkAblationDelayedAcks compares the paper's per-segment-ACK sink
// against RFC 1122 delayed ACKs under EBSN.
func BenchmarkAblationDelayedAcks(b *testing.B) {
	var immediate, delayed float64
	for i := 0; i < b.N; i++ {
		run := func(delay bool) float64 {
			cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
			cfg.DelayedAcks = delay
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		immediate = run(false)
		delayed = run(true)
	}
	b.ReportMetric(immediate, "kbps-immediate")
	b.ReportMetric(delayed, "kbps-delayed")
}

// BenchmarkAblationSACK measures how much of basic TCP's wireless penalty
// selective acknowledgments recover without any base-station help — the
// TCP-side alternative the paper's approach competes with.
func BenchmarkAblationSACK(b *testing.B) {
	var plain, sacked float64
	for i := 0; i < b.N; i++ {
		run := func(sack bool) float64 {
			cfg := core.WAN(bs.Basic, 576, 4*time.Second)
			cfg.SACK = sack
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		plain = run(false)
		sacked = run(true)
	}
	b.ReportMetric(plain, "kbps-plain")
	b.ReportMetric(sacked, "kbps-sack")
}

// BenchmarkBaselineSplitConnection measures the I-TCP baseline against
// EBSN at the paper's default point.
func BenchmarkBaselineSplitConnection(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		run := func(s bs.Scheme) float64 {
			cfg := core.WAN(s, 576, 4*time.Second)
			cfg.TransferSize = 40 * units.KB
			r, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		gap = run(bs.EBSN) - run(bs.SplitConnection)
	}
	b.ReportMetric(gap, "kbps-ebsn-over-split")
}

// BenchmarkRelatedWorkHandoff regenerates the §2 mobility comparison
// [Caceres & Iftode 94]: the metric is fast-retransmit-on-handoff's
// throughput advantage over plain TCP at a 1 s dwell.
func BenchmarkRelatedWorkHandoff(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		run := func(dupAcks bool) float64 {
			r, err := core.Run(experiment.HandoffConfig(time.Second, 100*time.Millisecond, dupAcks))
			if err != nil {
				b.Fatal(err)
			}
			return r.Summary.ThroughputKbps
		}
		plain, fr := run(false), run(true)
		adv = 100 * (fr - plain) / plain
	}
	b.ReportMetric(adv, "%fastretransmit-advantage")
}

// BenchmarkExtensionEBSNWithScheduling measures the timeout reduction
// from composing EBSN with the FIFO shared-radio scheduler.
func BenchmarkExtensionEBSNWithScheduling(b *testing.B) {
	var plainTO, ebsnTO float64
	for i := 0; i < b.N; i++ {
		run := func(ebsn bool) float64 {
			cfg := cell.LAN(4, cell.FIFO, time.Second)
			cfg.TransferSize = 256 * units.KB
			cfg.EBSN = ebsn
			r, err := cell.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return float64(r.TotalTimeouts)
		}
		plainTO = run(false)
		ebsnTO = run(true)
	}
	b.ReportMetric(plainTO, "timeouts-plain")
	b.ReportMetric(ebsnTO, "timeouts-ebsn")
}

// BenchmarkExtensionInteractiveWorkloads measures EBSN's effect on web
// page loads, one of the paper's motivating-but-unevaluated applications.
func BenchmarkExtensionInteractiveWorkloads(b *testing.B) {
	var webBasic, webEBSN float64
	for i := 0; i < b.N; i++ {
		web := func(s bs.Scheme) float64 {
			r, err := core.RunWeb(core.WAN(s, 576, 4*time.Second), core.WebWorkload{
				Pages: 6, PageSize: 8 * units.KB, ThinkTime: 2 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r.MeanLoadSec
		}
		webBasic, webEBSN = web(bs.Basic), web(bs.EBSN)
	}
	b.ReportMetric(webBasic, "web-mean-s-basic")
	b.ReportMetric(webEBSN, "web-mean-s-ebsn")
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkSimKernel measures raw event scheduling and dispatch.
func BenchmarkSimKernel(b *testing.B) {
	s := sim.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			if err := s.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimTimerReset measures the EBSN hot path: cancelling and
// re-arming a timer.
func BenchmarkSimTimerReset(b *testing.B) {
	s := sim.New()
	tm := sim.NewTimer(s, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Set(time.Second)
	}
	tm.Stop()
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimHold is the classic hold model of event-queue benchmarks:
// n events pending, and each op fires the earliest and schedules one
// more at a random delay, so the queue stays at n. At 8 pending the
// kernel keeps its sorted layout; from 64 up it runs the 4-ary heap, and
// the 1 000 and 10 000 rows are the worst-case gate on the layout switch
// (a sorted layout alone is quadratic here: 7.5 µs an op at 10 000).
func BenchmarkSimHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	fn := func() {}
	for _, n := range []int{8, 64, 1000, 10000} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			s := sim.New()
			for i := 0; i < n; i++ {
				s.Schedule(delays[i%len(delays)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := s.Step(); !ok || err != nil {
					b.Fatalf("step %d: ok=%v err=%v", i, ok, err)
				}
				s.Schedule(delays[i%len(delays)], fn)
			}
		})
	}
}

// BenchmarkMarkovChannel measures per-transmission corruption queries.
func BenchmarkMarkovChannel(b *testing.B) {
	ch, err := errmodel.NewMarkov(errmodel.PaperWAN(2*time.Second), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i%100000) * time.Millisecond
		ch.ExpectedBitErrors(at, at+80*time.Millisecond, 1536)
	}
}

// mathRNG is sim.RNG as it was before it had a source of its own: the
// same one-pointer wrapper, over math/rand's generator. The RNG
// benchmarks' *MathRand rows run on it, so each pair differs in the
// source alone.
type mathRNG struct{ r *rand.Rand }

func newMathRNG(seed int64) *mathRNG { return &mathRNG{r: rand.New(rand.NewSource(seed))} }

func (g *mathRNG) Int63() int64 { return g.r.Int63() }

// rngSink keeps the RNG benchmarks' draws alive.
var rngSink int64

// BenchmarkRNGSeed measures what a short-lived random stream costs: build
// a generator and take the six draws a cell flow's fading channel takes in
// a typical run. sim.RNG seeds only the register words those draws read;
// math/rand's source fills all 607 first (BenchmarkRNGSeedMathRand; the
// gate is a factor of five between the two).
func BenchmarkRNGSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := sim.NewRNG(int64(i))
		for k := 0; k < 6; k++ {
			rngSink += g.Int63()
		}
	}
}

func BenchmarkRNGSeedMathRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := newMathRNG(int64(i))
		for k := 0; k < 6; k++ {
			rngSink += g.Int63()
		}
	}
}

// BenchmarkRNGDraw measures the steady-state draw, every register word
// long since seeded (the gate: within 10 % of BenchmarkRNGDrawMathRand).
func BenchmarkRNGDraw(b *testing.B) {
	g := sim.NewRNG(1)
	for k := 0; k < 1000; k++ {
		g.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rngSink += g.Int63()
	}
}

func BenchmarkRNGDrawMathRand(b *testing.B) {
	g := newMathRNG(1)
	for k := 0; k < 1000; k++ {
		g.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rngSink += g.Int63()
	}
}

// runSeeds is the seed set the run benchmarks cycle through: fixed, so
// every row times the same runs whatever b.N the framework picks, and
// BenchmarkLANRun and BenchmarkLANRunOracle time the same runs as each
// other.
const runSeeds = 16

// runSeed is the seed of a run benchmark's iteration i.
func runSeed(i int) int64 { return int64(i%runSeeds + 1) }

// BenchmarkWANRun measures one full wide-area simulation (100 KB, EBSN).
func BenchmarkWANRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
		cfg.Seed = runSeed(i)
		r, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkLANRun measures one full local-area simulation (4 MB, EBSN).
func BenchmarkLANRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.LAN(bs.EBSN, 800*time.Millisecond)
		cfg.Seed = runSeed(i)
		r, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkLANRunOracle is BenchmarkLANRun with the conformance oracle
// armed: the difference between the two rows is what checking every event
// of a 4 MB transfer costs.
func BenchmarkLANRunOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.LAN(bs.EBSN, 800*time.Millisecond)
		cfg.Seed = runSeed(i)
		cfg.Oracle = true
		r, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkZooOracle runs lan_zoo's grid — the LAN preset under every
// sender variant and base-station scheme, seed 100001 as the end-to-end
// benchmark's seed 1 — once with the conformance oracle off and once with
// it on in every round, alternating which goes first. on_ratio is the
// median over rounds of the oracle-on grid's wall time over the
// oracle-off grid's: what checking every event adds to a run, on the same
// runs, read where neither half was disturbed more than the other.
func BenchmarkZooOracle(b *testing.B) {
	var grid []core.Config
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, s := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
			cfg := core.LAN(s, 800*time.Millisecond)
			cfg.Variant, cfg.Seed = v, 100001
			grid = append(grid, cfg)
		}
	}
	ratios := make([]float64, b.N)
	for i := range ratios {
		var wall [2]time.Duration // oracle off, on
		for k := 0; k < 2; k++ {
			on := (i + k) % 2
			t0 := time.Now()
			for _, cfg := range grid {
				cfg.Oracle = on == 1
				if r, err := core.Run(cfg); err != nil || !r.Completed {
					b.Fatalf("%v/%v oracle=%v: %v", cfg.Variant, cfg.Scheme, cfg.Oracle, err)
				}
			}
			wall[on] = time.Since(t0)
		}
		ratios[i] = float64(wall[1]) / float64(wall[0])
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "on_ratio")
}

// BenchmarkOracleCheck replays the recorded event stream of one LAN EBSN
// run through oracle.Check; the ns/event metric is the checker's cost per
// event with no simulation around it.
func BenchmarkOracleCheck(b *testing.B) {
	cfg := core.LAN(bs.EBSN, 800*time.Millisecond)
	cfg.CollectTrace, cfg.Oracle = true, true
	r, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := r.Trace.Events()
	ocfg := oracle.Config{
		Variant: cfg.Variant, MSS: cfg.MSS(), Window: cfg.Window,
		RTmax: cfg.ARQ.RTmax, TrackNotifications: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := oracle.Check(ocfg, events); v != nil {
			b.Fatal(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
