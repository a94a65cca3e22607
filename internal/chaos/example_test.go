package chaos_test

import (
	"fmt"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/units"
)

func chaosConfig() core.Config {
	cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Checks = true // invariant checking + auto-armed watchdog
	cfg.Seed = 7
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WirelessDown, At: 10 * time.Second, Length: 3 * time.Second}},
		Crashes:   []chaos.Crash{{At: 25 * time.Second, Downtime: 2 * time.Second}},
		Notify:    chaos.NotifyFaults{LossProb: 0.5},
	}
	return cfg
}

// Example_chaos composes faults beyond the paper's error model — a
// wireless blackout, a base-station crash that loses all ARQ state, and
// 50% EBSN notification loss — onto one EBSN transfer, with runtime
// invariant checking and the no-progress watchdog armed. It runs twice
// with one seed to show the whole fault schedule is deterministic, then
// wedges a transfer completely to show the watchdog aborting it with a
// diagnostic snapshot.
func Example_chaos() {
	fmt.Println("30KB EBSN transfer under injected faults: 3s wireless blackout at 10s,")
	fmt.Println("base-station crash at 25s (2s downtime, ARQ state lost), 50% EBSN loss.")
	fmt.Println()

	first, err := core.Run(chaosConfig())
	if err != nil {
		fmt.Println("error:", err) // an invariant violation
		return
	}
	second, err := core.Run(chaosConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	report := func(name string, r *core.Result) {
		fmt.Printf("%-12s completed=%v  throughput=%.2f Kbps  timeouts=%d\n",
			name, r.Completed, r.Summary.ThroughputKbps, r.Summary.Timeouts)
		fmt.Printf("%-12s faults: crashes=%d arq_state_lost=%d notify_lost=%d\n",
			"", r.Chaos.Crashes, r.Chaos.CrashLostPackets, r.Chaos.NotifyDropped)
	}
	report("run 1:", first)
	report("run 2:", second)
	identical := first.Summary == second.Summary && *first.Chaos == *second.Chaos
	fmt.Printf("\nbit-identical across runs (same seed): %v\n", identical)

	// Now leave the transfer no way to finish: a blackout covering the
	// whole horizon on the forward wired hop. The watchdog aborts the run
	// after its no-progress window instead of simulating two virtual
	// hours of nothing.
	wedged := core.WAN(bs.Basic, 576, 2*time.Second)
	wedged.TransferSize = 30 * units.KB
	wedged.Stall = 2 * time.Minute
	wedged.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WiredFwd, At: 0, Length: 4 * time.Hour}},
	}
	r, err := core.Run(wedged)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("\nwedged run (forward wire dead for the whole horizon):\n")
	fmt.Printf("aborted=%v at virtual time %v; watchdog snapshot:\n%s\n",
		r.Aborted, r.Summary.Elapsed, r.AbortReason)
	// Output:
	// 30KB EBSN transfer under injected faults: 3s wireless blackout at 10s,
	// base-station crash at 25s (2s downtime, ARQ state lost), 50% EBSN loss.
	//
	// run 1:       completed=true  throughput=5.86 Kbps  timeouts=1
	//              faults: crashes=1 arq_state_lost=3 notify_lost=69
	// run 2:       completed=true  throughput=5.86 Kbps  timeouts=1
	//              faults: crashes=1 arq_state_lost=3 notify_lost=69
	//
	// bit-identical across runs (same seed): true
	//
	// wedged run (forward wire dead for the whole horizon):
	// aborted=true at virtual time 2m0s; watchdog snapshot:
	// sim: watchdog: no progress since 0s (aborted at 2m0s, progress=0)
	//   sender: snd_una=0 snd_nxt=536 snd_max=536 cwnd=536 done=false
	//   sink:   rcv_nxt=0 delivered=0
	//   bs:     scheme=basic down=false backlog=0 crashes=0 crash_lost=0 crash_discards=0
	//   link wired-fwd     queue=0 busy=false sent=6 delivered=0 corrupted=6 injected=0 drops=0
	//   link wired-rev     queue=0 busy=false sent=0 delivered=0 corrupted=0 injected=0 drops=0
	//   link wireless-down queue=0 busy=false sent=0 delivered=0 corrupted=0 injected=0 drops=0
	//   link wireless-up   queue=0 busy=false sent=0 delivered=0 corrupted=0 injected=0 drops=0
	//   chaos:  storm_drops=0 corrupt=0 dups=0 reorders=0 notify_lost=0 notify_dup=0 notify_delayed=0 handoffs=0 handoff_drops=0
}
