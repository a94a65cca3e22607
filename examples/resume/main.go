// Crash-safe campaigns: this example demonstrates the experiment
// engine's three robustness features end to end.
//
//  1. Checkpointed sweeps — a Figure 7 sweep is cancelled midway (as if
//     killed), then rerun against its checkpoint; the resumed output is
//     byte-identical to an uninterrupted run.
//
//  2. Parallel replications — the same sweep at 4 workers
//     produces the same bytes as the sequential one.
//
//  3. Repro bundles — a wedged scenario (the forward wired hop dead for
//     the whole run) is captured as a self-contained bundle, then
//     shrunk to a minimal scenario that still fails the same way.
//
//     go run ./examples/resume
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/repro"
	"wtcp/internal/units"
)

func sweepOpts() experiment.Options {
	return experiment.Options{
		Replications: 2,
		Transfer:     20 * units.KB,
		PacketSizes:  []units.ByteSize{512, 1536},
		BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
	}
}

func main() {
	dir, err := os.MkdirTemp("", "wtcp-resume")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- 1. Uninterrupted baseline ------------------------------------
	baseline, err := experiment.Fig7(context.Background(), sweepOpts())
	if err != nil {
		log.Fatal(err)
	}
	want := experiment.ThroughputCSV(baseline)
	fmt.Println("baseline sweep: 4 points, no checkpoint")

	// --- 2. Kill the sweep after two points, then resume ---------------
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
		log.Fatalf("expected cancellation, got %v", err)
	}
	cancel()

	opt = sweepOpts()
	opt.Checkpoint = ckpt
	fresh := 0
	opt.OnPoint = func(string) { fresh++ }
	resumed, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		log.Fatal(err)
	}
	got := experiment.ThroughputCSV(resumed)
	fmt.Printf("resumed sweep: %d points reloaded from checkpoint, %d computed fresh\n",
		len(resumed)-fresh, fresh)
	fmt.Println("resumed output byte-identical to baseline:", got == want)

	// --- 3. Parallel pool, identical bytes -----------------------------
	par := sweepOpts()
	par.Workers = 4
	parallel, err := experiment.Fig7(context.Background(), par)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("4-worker output byte-identical to sequential:",
		experiment.ThroughputCSV(parallel) == want)

	// --- 4. Capture a failure as a bundle and shrink it -----------------
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
		log.Fatal("wedged scenario did not fail")
	}
	fmt.Printf("captured failure: [%s] %s\n", bundle.Kind, bundle.Failure)

	min, stats, err := repro.Shrink(context.Background(), bundle, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shrunk in %d replays: %d -> %d chaos faults, transfer %v -> %v\n",
		stats.Replays,
		len(bundle.Config.Chaos.Blackouts)+len(bundle.Config.Chaos.Crashes),
		len(min.Config.Chaos.Blackouts)+len(min.Config.Chaos.Crashes),
		bundle.Config.TransferSize, min.Config.TransferSize)
	o, err := repro.Replay(context.Background(), min)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimized scenario still reproduces:", o.Matches(bundle))
}
