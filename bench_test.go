// Package wtcp_test holds the repository-level benchmark harness: the
// simulation substrate's micro-benchmarks (the event kernel, the fading
// channel, the random source) and whole-run benchmarks of the WAN and LAN
// presets, with and without the conformance oracle. BENCH_kernel.json
// records them and `make bench-smoke` gates the BenchmarkSim* rows.
//
// Run everything with:
//
//	go test -run '^$' -bench=. -benchmem
//
// What the paper's figures and the ablations show is not timed here:
// `wtcp figures` and `wtcp report` regenerate them, and the package tests
// and Examples check them.
package wtcp_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/errmodel"
	"wtcp/internal/oracle"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
)

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
