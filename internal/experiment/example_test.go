package experiment_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/cell"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/repro"
	"wtcp/internal/units"
)

// ExampleFig7 runs a reduced Figure 7 sweep and locates the optimal
// packet size for a given error condition — the paper's §4.1 proposal.
func ExampleFig7() {
	points, err := experiment.Fig7(context.Background(), experiment.Options{
		Replications: 2,
		Transfer:     40 * units.KB,
		PacketSizes:  []units.ByteSize{128, 512, 1536},
		BadPeriods:   []time.Duration{time.Second},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	size, tput := experiment.OptimalPacketSize(points, time.Second)
	fmt.Println("points:", len(points))
	fmt.Println("optimum in sweep:", size == 128 || size == 512 || size == 1536)
	fmt.Println("optimum positive:", tput > 0)
	// Output:
	// points: 3
	// optimum in sweep: true
	// optimum positive: true
}

// ExampleCalibrateAdvisor builds the base station's §4.1 advisory table
// and answers a point query.
func ExampleCalibrateAdvisor() {
	advisor, err := experiment.CalibrateAdvisor(context.Background(), experiment.Options{
		Replications: 2,
		Transfer:     40 * units.KB,
		PacketSizes:  []units.ByteSize{256, 512, 1024},
		BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("entries:", len(advisor.Table()))
	rec := advisor.Recommend(900 * time.Millisecond)
	fmt.Println("recommendation in sweep:", rec == 256 || rec == 512 || rec == 1024)
	// Output:
	// entries: 2
	// recommendation in sweep: true
}

// ExampleTraceFigure reproduces the Figure 5 headline: EBSN removes every
// source timeout under the deterministic fade schedule.
func ExampleTraceFigure() {
	r, err := experiment.TraceFigure(bs.EBSN, 60*time.Second)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("timeouts:", r.Summary.Timeouts)
	// Output:
	// timeouts: 0
}

// Example_handoff studies the mobility problem the paper's related-work
// section opens with [Caceres & Iftode 94]. A mobile host crossing cells
// loses the packets queued at its old base station; plain TCP then waits
// out a retransmission timeout per crossing, while the fast-retransmit
// scheme (three duplicate acks sent right after reconnecting) resumes
// within a round trip. A handoff is a chaos fault on the paper's
// topology.
func Example_handoff() {
	// Handoff runs are deterministic, so one replication per point suffices.
	points, err := experiment.HandoffStudy(context.Background(),
		experiment.Options{Replications: 1}, experiment.HandoffOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("1MB transfers across 2 Mbps cells, 100ms handoff gap")
	fmt.Println(experiment.HandoffTable.Markdown(points))

	// One concrete pair, with the per-handoff cost spelled out.
	var runs [2]*core.Result // plain, then fast retransmit
	for i, dupAcks := range []bool{false, true} {
		if runs[i], err = core.Run(experiment.HandoffConfig(time.Second, 100*time.Millisecond, dupAcks)); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	plain, fr := runs[0], runs[1]
	fmt.Printf("dwell 1s: plain %.1fs (%d timeouts, %d handoffs) vs fast-retransmit %.1fs (%d fast retransmits)\n",
		plain.Summary.Elapsed.Seconds(), plain.Summary.Timeouts, plain.Chaos.Handoffs,
		fr.Summary.Elapsed.Seconds(), fr.Summary.FastRetransmits)
	fmt.Printf("improvement: %.0f%% shorter transfer\n",
		100*(plain.Summary.Elapsed-fr.Summary.Elapsed).Seconds()/plain.Summary.Elapsed.Seconds())
	// Output:
	// 1MB transfers across 2 Mbps cells, 100ms handoff gap
	// | scheme | dwell | throughput (Kbps) | timeouts | fast retransmits |
	// | --- | --- | --- | --- | --- |
	// | plain | 500ms | 1051±0% | 13.0 | 0.0 |
	// | plain | 1s | 1368±0% | 5.0 | 0.0 |
	// | plain | 2s | 1557±0% | 2.0 | 0.0 |
	// | fastretransmit | 500ms | 1603±0% | 0.0 | 8.0 |
	// | fastretransmit | 1s | 1755±0% | 0.0 | 4.0 |
	// | fastretransmit | 2s | 1843±0% | 0.0 | 2.0 |
	//
	// dwell 1s: plain 6.1s (5 timeouts, 5 handoffs) vs fast-retransmit 4.8s (4 fast retransmits)
	// improvement: 22% shorter transfer
}

// Example_multiconn has several TCP transfers share the base station's
// radio while their mobile hosts fade independently, the related-work
// comparison the paper summarizes in §2 [Bhagwat et al., INFOCOM 95]:
// FIFO service suffers head-of-line blocking; round-robin isolates a
// fading connection; channel-state-dependent scheduling (CSDP) does best
// but depends on the predictor's accuracy.
func Example_multiconn() {
	points, err := experiment.CSDPStudy(context.Background(),
		experiment.Options{Replications: 3}, experiment.CSDPOptions{Connections: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("4 TCP connections sharing a 2 Mbps radio, independent per-user fading")
	fmt.Println(experiment.CSDPTable.Markdown(points))

	fmt.Println("predictor-accuracy sensitivity (bad period 1s):")
	for _, acc := range []float64{1.0, 0.9, 0.75, 0.5} {
		var agg float64
		const reps = 3
		for seed := int64(1); seed <= reps; seed++ {
			cfg := cell.LAN(4, cell.CSDP, time.Second)
			cfg.PredictorAccuracy = acc
			cfg.Seed = seed
			r, err := cell.Run(cfg)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			agg += r.AggregateKbps / reps
		}
		fmt.Printf("  accuracy %.2f: %7.0f Kbps aggregate\n", acc, agg)
	}
	// Output:
	// 4 TCP connections sharing a 2 Mbps radio, independent per-user fading
	// | policy | bad | aggregate (Kbps) | fairness | discards |
	// | --- | --- | --- | --- | --- |
	// | fifo | 500ms | 863±27% | 1.000 | 7.3 |
	// | fifo | 1s | 621±24% | 1.000 | 19.7 |
	// | fifo | 2s | 394±13% | 0.949 | 46.0 |
	// | roundrobin | 500ms | 1314±1% | 0.996 | 0.3 |
	// | roundrobin | 1s | 1243±2% | 0.989 | 3.0 |
	// | roundrobin | 2s | 1135±3% | 0.976 | 7.0 |
	// | csdp | 500ms | 1457±3% | 0.993 | 0.0 |
	// | csdp | 1s | 1450±2% | 0.984 | 0.0 |
	// | csdp | 2s | 1568±8% | 0.962 | 0.0 |
	//
	// predictor-accuracy sensitivity (bad period 1s):
	//   accuracy 1.00:    1450 Kbps aggregate
	//   accuracy 0.90:    1411 Kbps aggregate
	//   accuracy 0.75:    1345 Kbps aggregate
	//   accuracy 0.50:    1126 Kbps aggregate
}

// Example_packetsize is the paper's first proposal: for a given wireless
// error condition, sweep the wired-network packet size and find the
// optimum — which differs from both the wireless MTU (128 B) and the IP
// default (576 B), and shifts with the error condition. A base station
// can exploit this with a static table mapping the current error
// characteristic to the packet size a source should use, with no
// per-connection state (§4.1).
func Example_packetsize() {
	points, err := experiment.Fig7(context.Background(), experiment.Options{
		Replications: 5,
		PacketSizes:  []units.ByteSize{128, 256, 384, 512, 768, 1024, 1280, 1536},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("Basic TCP over the wide-area preset: throughput (Kbps) by packet size")
	fmt.Println(experiment.ThroughputTable.Markdown(points))

	fmt.Println("optimal packet size per error condition (mean bad period):")
	for _, bad := range []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second} {
		size, tput := experiment.OptimalPacketSize(points, bad)
		var at1536 float64
		for _, p := range points {
			if p.BadPeriod == bad && p.PacketSize == 1536 {
				at1536 = p.ThroughputKbps.Mean()
			}
		}
		fmt.Printf("  bad=%v: best %v at %.2f Kbps (%.0f%% over 1536B packets)\n",
			bad, size, tput, 100*(tput-at1536)/at1536)
	}
	// Output:
	// Basic TCP over the wide-area preset: throughput (Kbps) by packet size
	// | pkt size | bad=1s | bad=2s | bad=3s | bad=4s |
	// | --- | --- | --- | --- | --- |
	// | tput_th | 11.64 | 10.67 | 9.85 | 9.14 |
	// | 128B | 6.53±7% | 6.11±9% | 4.41±13% | 4.12±15% |
	// | 256B | 8.40±14% | 6.65±34% | 6.18±21% | 4.58±50% |
	// | 384B | 8.40±11% | 7.10±14% | 5.11±46% | 4.76±47% |
	// | 512B | 8.25±18% | 6.53±31% | 5.19±45% | 4.81±47% |
	// | 768B | 8.83±11% | 7.36±35% | 6.69±46% | 5.95±50% |
	// | 1KB | 8.22±21% | 5.82±49% | 6.84±39% | 3.95±48% |
	// | 1280B | 8.89±23% | 4.66±49% | 6.63±47% | 5.76±39% |
	// | 1536B | 8.77±8% | 6.47±42% | 5.71±24% | 4.87±65% |
	//
	// optimal packet size per error condition (mean bad period):
	//   bad=1s: best 1280B at 8.89 Kbps (1% over 1536B packets)
	//   bad=2s: best 768B at 7.36 Kbps (14% over 1536B packets)
	//   bad=3s: best 1KB at 6.84 Kbps (20% over 1536B packets)
	//   bad=4s: best 768B at 5.95 Kbps (22% over 1536B packets)
}

// Example_resume shows the experiment engine's three robustness
// features end to end: a Figure 7 sweep cancelled midway (as if killed)
// and rerun against its checkpoint gives the bytes of an uninterrupted
// run; the same sweep at 4 workers gives the bytes of the sequential
// one; and a wedged scenario (the forward wired hop dead for the whole
// run) is captured as a self-contained repro bundle, then shrunk to a
// minimal scenario that still fails the same way.
func Example_resume() {
	sweepOpts := func() experiment.Options {
		return experiment.Options{
			Replications: 2,
			Transfer:     20 * units.KB,
			PacketSizes:  []units.ByteSize{512, 1536},
			BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
		}
	}
	dir, err := os.MkdirTemp("", "wtcp-resume")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	// Uninterrupted baseline.
	baseline, err := experiment.Fig7(context.Background(), sweepOpts())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	want := experiment.ThroughputTable.CSV(baseline)
	fmt.Println("baseline sweep: 4 points, no checkpoint")

	// Kill the sweep after two points, then resume.
	ckpt := filepath.Join(dir, "sweep.json")
	ctx, cancel := context.WithCancel(context.Background())
	opt := sweepOpts()
	opt.Checkpoint = ckpt
	finished := 0
	opt.OnPoint = func(key string) {
		finished++
		fmt.Printf("  finished %s\n", key)
		if finished == 2 {
			fmt.Println("  -- simulating a kill: cancelling mid-sweep --")
			cancel()
		}
	}
	if _, err := experiment.Fig7(ctx, opt); !errors.Is(err, context.Canceled) {
		fmt.Println("expected cancellation, got", err)
		return
	}
	cancel()

	opt = sweepOpts()
	opt.Checkpoint = ckpt
	fresh := 0
	opt.OnPoint = func(string) { fresh++ }
	resumed, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("resumed sweep: %d points reloaded from checkpoint, %d computed fresh\n",
		len(resumed)-fresh, fresh)
	fmt.Println("resumed output byte-identical to baseline:", experiment.ThroughputTable.CSV(resumed) == want)

	// Parallel pool, identical bytes.
	par := sweepOpts()
	par.Workers = 4
	parallel, err := experiment.Fig7(context.Background(), par)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("4-worker output byte-identical to sequential:",
		experiment.ThroughputTable.CSV(parallel) == want)

	// Capture a failure as a bundle and shrink it.
	cfg := core.WAN(bs.Basic, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Stall = 2 * time.Minute
	cfg.Horizon = 30 * time.Minute
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{
			{Link: chaos.WiredFwd, At: 0, Length: 4 * time.Hour},               // the wedge
			{Link: chaos.WirelessUp, At: 5 * time.Second, Length: time.Second}, // decoy
		},
		Crashes: []chaos.Crash{{At: 40 * time.Second, Downtime: 2 * time.Second}}, // decoy
	}
	res, runErr := core.Run(cfg)
	bundle := repro.Capture(cfg, res, runErr)
	if bundle == nil {
		fmt.Println("wedged scenario did not fail")
		return
	}
	fmt.Printf("captured failure: [%s] %s\n", bundle.Kind, bundle.Failure)

	min, stats, err := repro.Shrink(context.Background(), bundle, 60)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("shrunk in %d replays: %d -> %d chaos faults, transfer %v -> %v\n",
		stats.Replays,
		len(bundle.Config.Chaos.Blackouts)+len(bundle.Config.Chaos.Crashes),
		len(min.Config.Chaos.Blackouts)+len(min.Config.Chaos.Crashes),
		bundle.Config.TransferSize, min.Config.TransferSize)
	o, err := repro.Replay(context.Background(), min)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("minimized scenario still reproduces:", o.Matches(bundle))
	// Output:
	// baseline sweep: 4 points, no checkpoint
	//   finished wan/basic/bad=1s/size=512
	//   finished wan/basic/bad=1s/size=1536
	//   -- simulating a kill: cancelling mid-sweep --
	// resumed sweep: 2 points reloaded from checkpoint, 2 computed fresh
	// resumed output byte-identical to baseline: true
	// 4-worker output byte-identical to sequential: true
	// captured failure: [watchdog] sim: watchdog: no progress since 0s (aborted at 2m0s, progress=0)
	// shrunk in 19 replays: 3 -> 1 chaos faults, transfer 30KB -> 960B
	// minimized scenario still reproduces: true
}
