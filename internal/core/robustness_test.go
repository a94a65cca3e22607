package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// chaosPlan is the acceptance scenario: a base-station crash, EBSN
// notification loss, and a wireless blackout, composed on one run.
func chaosPlan() *chaos.Config {
	return &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WirelessDown, At: 10 * time.Second, Length: 3 * time.Second}},
		Crashes:   []chaos.Crash{{At: 25 * time.Second, Downtime: 2 * time.Second}},
		Notify:    chaos.NotifyFaults{LossProb: 0.5},
	}
}

func chaosConfig(t *testing.T) Config {
	t.Helper()
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Chaos = chaosPlan()
	cfg.Checks = true
	cfg.Seed = 7
	return cfg
}

// TestChaosScenarioRunsClean is the acceptance scenario: crash + EBSN
// loss + blackout must either complete or abort cleanly — never panic,
// never violate an invariant.
func TestChaosScenarioRunsClean(t *testing.T) {
	r, err := Run(chaosConfig(t))
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if !r.Completed && !r.Aborted {
		t.Error("run neither completed nor aborted")
	}
	if r.Chaos == nil {
		t.Fatal("chaos counters missing from the result")
	}
	if r.Chaos.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", r.Chaos.Crashes)
	}
	if r.BS.Crashes != 1 {
		t.Errorf("BS crash counter = %d, want 1", r.BS.Crashes)
	}
}

// TestChaosDeterminism runs the acceptance scenario twice with one seed:
// the results must be bit-identical, faults included.
func TestChaosDeterminism(t *testing.T) {
	a, err := Run(chaosConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(chaosConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a.Summary, b.Summary)
	}
	// A different seed must change the probabilistic faults' outcome
	// somewhere (throughput, drops, or notification counts).
	cfg := chaosConfig(t)
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Summary, c.Summary) && reflect.DeepEqual(a.Chaos, c.Chaos) {
		t.Error("different seeds produced identical runs; the chaos RNG is not seeded")
	}
}

// TestChaosDoesNotPerturbBaseline: a run with a nil (or empty) fault plan
// must be bit-identical to one with no plan at all — the chaos RNG only
// splits off when faults are enabled.
func TestChaosDoesNotPerturbBaseline(t *testing.T) {
	base := WAN(bs.EBSN, 576, 2*time.Second)
	base.TransferSize = 20 * units.KB
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := base
	withEmpty.Chaos = &chaos.Config{}
	b, err := Run(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary || a.Sender != b.Sender {
		t.Error("an empty fault plan changed the run")
	}
}

// TestPaperScenariosPassChecks runs each scheme's paper configuration
// with invariant checking enabled: the protocols must hold every
// invariant for the whole transfer.
func TestPaperScenariosPassChecks(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN, bs.SourceQuench, bs.Snoop} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := WAN(scheme, 576, 2*time.Second)
			cfg.TransferSize = 30 * units.KB
			cfg.Checks = true
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("invariant violation in a paper scenario: %v", err)
			}
			if !r.Completed {
				t.Error("transfer did not complete")
			}
			if r.Aborted {
				t.Errorf("watchdog aborted a healthy run: %s", r.AbortReason)
			}
		})
	}
}

// TestSplitChecksSupported: split-connection runs support invariant
// checking (chaos is rejected, but checks are not).
func TestSplitChecksSupported(t *testing.T) {
	cfg := WAN(bs.SplitConnection, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Checks = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("split run with checks failed: %v", err)
	}
	if !r.Completed {
		t.Error("split transfer did not complete")
	}
}

func TestChaosRejectedForSplit(t *testing.T) {
	cfg := WAN(bs.SplitConnection, 576, 2*time.Second)
	cfg.Chaos = chaosPlan()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "split-connection") {
		t.Errorf("split + chaos not rejected: %v", err)
	}
}

// TestWatchdogAbortsWedgedRun: a blackout covering the entire horizon
// leaves the transfer no way to make progress; the watchdog must abort
// with a diagnostic snapshot instead of burning events to the horizon.
func TestWatchdogAbortsWedgedRun(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Horizon = 2 * time.Hour
	cfg.Stall = 2 * time.Minute
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{
			{Link: chaos.WiredFwd, At: 0, Length: 2 * time.Hour},
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("wedged run returned an error instead of an abort: %v", err)
	}
	if !r.Aborted {
		t.Fatal("watchdog did not abort a run with a dead forward link")
	}
	if r.Completed {
		t.Error("aborted run claims completion")
	}
	if !strings.Contains(r.AbortReason, "watchdog") || !strings.Contains(r.AbortReason, "sender") {
		t.Errorf("abort reason lacks the diagnostic snapshot:\n%s", r.AbortReason)
	}
	// The abort must land well before the horizon (that is the point).
	if got := r.Summary.Elapsed; got > 30*time.Minute {
		t.Errorf("abort at %v; watchdog should fire within a few stall windows", got)
	}
}

func TestStallWindowResolution(t *testing.T) {
	base := Config{}
	if got := base.stallWindow(); got != 0 {
		t.Errorf("plain run arms watchdog at %v", got)
	}
	withChecks := Config{Checks: true}
	if got := withChecks.stallWindow(); got != DefaultStall {
		t.Errorf("checks auto-arm = %v, want %v", got, DefaultStall)
	}
	withChaos := Config{Chaos: chaosPlan()}
	if got := withChaos.stallWindow(); got != DefaultStall {
		t.Errorf("chaos auto-arm = %v, want %v", got, DefaultStall)
	}
	explicit := Config{Stall: time.Minute}
	if got := explicit.stallWindow(); got != time.Minute {
		t.Errorf("explicit stall = %v", got)
	}
	disabled := Config{Checks: true, Stall: -1}
	if got := disabled.stallWindow(); got != 0 {
		t.Errorf("disabled stall = %v, want 0", got)
	}
}

// TestBSCrashLosesState: a crash mid-transfer discards ARQ and radio
// queue state; the transfer must still complete after the restart (TCP
// recovers end to end).
func TestBSCrashLosesState(t *testing.T) {
	cfg := WAN(bs.LocalRecovery, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Checks = true
	cfg.Chaos = &chaos.Config{
		Crashes: []chaos.Crash{{At: 15 * time.Second, Downtime: 3 * time.Second}},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("transfer did not recover from a base-station crash (aborted=%v: %s)", r.Aborted, r.AbortReason)
	}
	if r.BS.Crashes != 1 {
		t.Errorf("BS.Crashes = %d, want 1", r.BS.Crashes)
	}
}

// TestPacketFaultsOnWiredHop: duplication and reordering on the wired
// path exercise TCP's dup-ack machinery; checks stay green and the
// transfer completes.
func TestPacketFaultsOnWiredHop(t *testing.T) {
	cfg := WAN(bs.Basic, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Checks = true
	cfg.Chaos = &chaos.Config{
		Packets: []chaos.PacketFaults{
			{Link: chaos.WiredFwd, CorruptProb: 0.02, DupProb: 0.05, ReorderProb: 0.05, ReorderDelay: 100 * time.Millisecond},
			{Link: chaos.WiredRev, DupProb: 0.05},
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("transfer did not survive wired packet faults (aborted=%v)", r.Aborted)
	}
	if r.Chaos.Duplicates == 0 && r.Chaos.Reorders == 0 && r.Chaos.CorruptDrops == 0 {
		t.Error("no packet faults were injected over a 30 KB transfer")
	}
}

// TestWorkloadRunnersArmSupervision: the workload runners go through the
// same arming as a bulk run, so cfg.Checks and the stall watchdog are
// honoured (both used to be ignored there) and, as everywhere, checking
// does not perturb the result.
func TestWorkloadRunnersArmSupervision(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	ref, err := RunWeb(cfg, webWL())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checks = true
	checked, err := RunWeb(cfg, webWL())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, checked) {
		t.Errorf("checks changed a web run:\n%+v\n%+v", ref, checked)
	}

	// Checks auto-arm the watchdog at DefaultStall: a reader who pauses
	// longer than that between pages looks like a wedged transfer.
	web := webWL()
	web.ThinkTime = DefaultStall + time.Minute
	var stall *sim.StallError
	if r, err := RunWeb(cfg, web); !errors.As(err, &stall) {
		t.Errorf("web, think time past the stall window: result %+v, error %v", r, err)
	}

	// An explicit window shorter than the think time trips between
	// pages, with checks off.
	cfg = WAN(bs.EBSN, 576, 2*time.Second)
	cfg.Stall = time.Second
	stall = nil
	if r, err := RunWeb(cfg, webWL()); !errors.As(err, &stall) {
		t.Errorf("web, 1 s stall window: result %+v, error %v", r, err)
	}
}
