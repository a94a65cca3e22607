package cell

import (
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Per-stage benchmarks isolate each hot-path segment of a flow's life —
// admission, send, the stop-and-wait ARQ cycle, sink delivery, ack
// processing — so a regression names the stage it hit instead of hiding
// in an end-to-end number. Each drives the engine's handlers directly
// with hand-restored state; all must report 0 allocs/op in steady state
// (wtcp bench compare -file BENCH_scale.json fails on any allocs/op growth).

// quietChannel never corrupts: per-stage benchmarks want deterministic
// success paths so every iteration does identical work.
func quietChannel() errmodel.Config {
	return errmodel.Config{GoodBER: 0, BadBER: 0, MeanGood: time.Hour}
}

// benchEngine builds a bound engine without starting any flows.
func benchEngine(tb testing.TB, cfg Config) *engine {
	tb.Helper()
	e, err := newEngine(cfg.withDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	e.bind(sim.New())
	return e
}

func benchConfig(flows int) Config {
	cfg := Preset(flows)
	cfg.Channel = quietChannel()
	cfg.TransferSize = 64 * units.MB // never completes during a bench
	cfg.OracleSample = 0
	cfg.AdmitBatch = 0
	return cfg
}

// BenchmarkCellAdmission measures startFlow: the initial cwnd-limited
// send, timer arm, and wired-pipe fold. Engines are recycled off the
// clock every F admissions.
func BenchmarkCellAdmission(b *testing.B) {
	const F = 8192
	cfg := benchConfig(F)
	b.ReportAllocs()
	var e *engine
	for i := 0; i < b.N; i++ {
		if i%F == 0 {
			b.StopTimer()
			e = benchEngine(b, cfg)
			b.StartTimer()
		}
		e.startFlow(int32(i % F))
	}
}

// BenchmarkCellSend measures one segment through the shared send path and
// the engine's Transmit: window check, Karn timing, wheel arm check, arena
// claim, retransmit accounting, wired-pipe fold, calendar push. The
// one-segment initial window lets exactly one segment out; the iteration
// is unwound (calendar pop, slot release, sequence rewind) so state never
// drifts, and from the second on an earlier segment is being timed and
// the timer is armed — the steady state.
func BenchmarkCellSend(b *testing.B) {
	e := benchEngine(b, benchConfig(256))
	const f = int32(7)
	e.started[f] = true
	st := e.flow(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Send(&e.tcp, e)
		_, _, _, slot, _ := e.cal.pop()
		e.arena.decref(slot)
		e.fwdBusy[f] = 0
		st.SndNxt, st.SndMax = 0, 0
	}
}

// BenchmarkCellARQ measures one full stop-and-wait radio cycle on a
// quiet channel: pick, transmit, link-ack success, hand-off to the
// sink's delivery queue.
func BenchmarkCellARQ(b *testing.B) {
	e := benchEngine(b, benchConfig(256))
	const f = int32(5)
	station := e.bsOf(f)
	slot := e.arena.alloc(f, 0, int32(e.mss))
	e.qPush(f, slot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.transmit(station, f)
		e.cal.pop() // evRadioDone; handlers are invoked directly
		e.radioDone(station)
		e.cal.pop() // evSinkDeliver (success is deterministic)
		// Re-queue a fresh packet; the sink's rcvNxt is untouched because
		// the delivery event was dropped above.
		s := e.arena.alloc(f, 0, int32(e.mss))
		e.qPush(f, s)
	}
}

// BenchmarkCellDelivery measures the sink side: in-order receive,
// cumulative-ack emission, reverse-pipe fold. A delivered segment
// arrives by value, so no arena slot is involved.
func BenchmarkCellDelivery(b *testing.B) {
	e := benchEngine(b, benchConfig(256))
	const f = int32(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.sinkReceive(f, e.rcvNxt[f], e.mss)
		if e.cal.len() > 0 {
			e.cal.pop() // evAckArrive
		}
		e.revBusy[f] = 0
	}
}

// BenchmarkCellAck measures the sender's ack path at full window: each
// new cumulative ack slides the window one MSS and releases exactly one
// fresh segment (congestion avoidance at the cwnd cap).
func BenchmarkCellAck(b *testing.B) {
	e := benchEngine(b, benchConfig(256))
	const f = int32(9)
	e.started[f] = true
	e.tcp.Total = 1 << 50 // never completes within b.N acks
	e.rows[f] = e.tcp.NewState()
	st := &e.rows[f]
	st.Cwnd = float64(e.adv) + float64(e.mss) // at cap: window() == adv
	st.Ssthresh = float64(e.mss)              // stay in congestion avoidance
	st.SndNxt = e.adv
	st.SndMax = e.adv
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ackArrive(f, st.SndUna+e.mss)
		_, _, _, slot, _ := e.cal.pop() // the one segment Send released
		e.arena.decref(slot)
		e.fwdBusy[f] = 0
	}
}

// End-to-end scale benchmarks: whole Preset(n) runs, dominated by the
// pump loop. ns/op here is the headline "simulate a cell" cost that
// BENCH_scale.json pins.

func benchmarkCellRun(b *testing.B, n int) {
	if raceEnabled && n > 1000 {
		b.Skip("large scale benchmarks run in non-race mode only")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Preset(n))
		if err != nil {
			b.Fatal(err)
		}
		if res.CompletedFlows < n*9/10 {
			b.Fatalf("only %d/%d flows completed", res.CompletedFlows, n)
		}
	}
}

// perFlow10k is the end-to-end benchmark's cell_10k configuration
// (bench/cellw.go): Preset(10000) with one fading channel per flow and a
// 30 min horizon. Every other benchmark and SLO here rides the preset's
// shared channel, which has one channel and one RNG stream per base
// station and so never showed what 10 000 of each cost to set up.
func perFlow10k(pol Policy) Config {
	cfg := Preset(10000)
	cfg.Policy = pol
	cfg.SharedChannel = false
	cfg.Horizon = 30 * time.Minute
	cfg.Seed = 100001
	return cfg
}

// BenchmarkCellRun10kPerFlow is one cell_10k batch: the per-flow-channel
// cell under each of the three policies.
func BenchmarkCellRun10kPerFlow(b *testing.B) {
	if raceEnabled {
		b.Skip("large scale benchmarks run in non-race mode only")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pol := range []Policy{RoundRobin, FIFO, CSDP} {
			res, err := Run(perFlow10k(pol))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("%v: only %d/10000 flows completed", pol, res.CompletedFlows)
			}
		}
	}
}

func BenchmarkCellRun1k(b *testing.B)  { benchmarkCellRun(b, 1000) }
func BenchmarkCellRun10k(b *testing.B) { benchmarkCellRun(b, 10000) }
func BenchmarkCellRun50k(b *testing.B) { benchmarkCellRun(b, 50000) }
