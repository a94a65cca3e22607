//go:build unix

package fleet

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"testing"
	"time"

	"wtcp/internal/chaos"
	"wtcp/internal/experiment"
)

// The crash acceptance suite: SIGKILL a worker process mid-campaign and
// assert the lease protocol's promises — zero lost points, zero
// double-counted replications, results bit-identical to the sequential
// engine. The kill ordering relative to the result post is the whole
// game, so the killed worker SIGKILLs *itself* at the exact boundary
// (via the env hooks in TestMain's worker mode) instead of being shot
// from outside at a random moment.

// runTestWorker is the helper-process main (dispatched from TestMain):
// join the coordinator named by env, optionally arming a self-SIGKILL
// at an exact result-post boundary — the only way to pin the
// kill-before-post and kill-after-post orderings deterministically.
func runTestWorker() {
	cfg := WorkerConfig{
		Name:        os.Getenv("WTCP_FLEET_TEST_NAME"),
		Coordinator: os.Getenv("WTCP_FLEET_TEST_COORD"),
		Health:      experiment.NewHealth(),
	}
	if plan := os.Getenv("WTCP_FLEET_TEST_FAULTS"); plan != "" {
		faults, err := chaos.ParseFleet([]byte(plan))
		if err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		cfg.HTTPClient = NewFaultClient(faults, int64(len(cfg.Name)))
	}
	if n, _ := strconv.Atoi(os.Getenv("WTCP_FLEET_TEST_KILL_BEFORE")); n > 0 {
		count := 0
		cfg.BeforeResult = func(string) {
			if count++; count == n {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if n, _ := strconv.Atoi(os.Getenv("WTCP_FLEET_TEST_KILL_AFTER")); n > 0 {
		// Count only posts the coordinator counted: one it dropped as a
		// duplicate (its unit was stolen and settled by the thief) leaves
		// the worker with nothing settled yet.
		count := 0
		cfg.AfterResult = func(_ string, duplicate bool) {
			if duplicate {
				return
			}
			if count++; count == n {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if err := RunWorker(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "test worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testWorkerCommand re-execs this test binary as a fleet worker.
// extraEnv arms crash hooks for specific worker indexes.
func testWorkerCommand(t *testing.T, extraEnv map[int][]string) func(i int, name, url string) *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(i int, name, url string) *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			"WTCP_FLEET_TEST_WORKER=1",
			"WTCP_FLEET_TEST_NAME="+name,
			"WTCP_FLEET_TEST_COORD="+url,
		)
		cmd.Env = append(cmd.Env, extraEnv[i]...)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// crashCampaign makes points heavy enough (~40 ms) that a 100 ms lease
// TTL expires well before the steal threshold (4x the median settle
// time) can fire, so the kill tests exercise the expiry path. The
// conformance oracle stays off: at transfers this large a known
// pre-existing oracle strictness issue (tahoe/cwnd-growth at ~4 min of
// virtual time) would fail the sequential reference run itself, which
// is orthogonal to what this suite tests.
func crashCampaign() Campaign {
	c := integrationCampaign()
	c.TransferKB = 500
	c.Oracle = false
	return c
}

// runCrashCampaign shards crashCampaign over two subprocess workers
// with worker 0 armed to SIGKILL itself (plus any extra worker
// environment, applied to both), then verifies the campaign completed
// with results bit-identical to the sequential engine's.
func runCrashCampaign(t *testing.T, killEnv string, extra ...string) Snapshot {
	t.Helper()
	c := crashCampaign()
	wantFig7, wantLAN := sequentialResults(t, c, "")

	ledger := filepath.Join(t.TempDir(), "ledger.json")
	snap, err := RunLocal(context.Background(), LocalOptions{
		Campaign:   c,
		Workers:    2,
		LedgerPath: ledger,
		LeaseTTL:   100 * time.Millisecond,
		WorkerCommand: testWorkerCommand(t, map[int][]string{
			0: append([]string{killEnv + "=1"}, extra...),
			1: extra,
		}),
		Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Settled != snap.TotalUnits || snap.TotalUnits != 4 {
		t.Fatalf("campaign settled %d/%d after worker kill, want 4/4 (no lost points)", snap.Settled, snap.TotalUnits)
	}
	completed := 0
	for _, w := range snap.Workers {
		completed += w.Completed
	}
	if completed != snap.TotalUnits {
		t.Errorf("workers are credited with %d settles of %d points, want each settled once", completed, snap.TotalUnits)
	}

	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ledger
	opt.OnPoint = func(key string) { t.Errorf("point %s recomputed during merge; ledger should hold it", key) }
	gotFig7, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	gotLAN, err := experiment.LANStudy(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identity also rules out double counting: a double-recorded
	// point would carry 2x the replications and differ immediately.
	if !reflect.DeepEqual(wantFig7, gotFig7) {
		t.Errorf("fig7 after worker kill differs from sequential run:\nwant %s\ngot  %s",
			renderTput(wantFig7), renderTput(gotFig7))
	}
	if !reflect.DeepEqual(wantLAN, gotLAN) {
		t.Errorf("lan study after worker kill differs from sequential run")
	}
	return snap
}

// TestWorkerSIGKILLBeforePost kills worker 0 after it computed its
// first point but before the result post. The point must be recovered
// by lease expiry and re-run by the survivor.
func TestWorkerSIGKILLBeforePost(t *testing.T) {
	snap := runCrashCampaign(t, "WTCP_FLEET_TEST_KILL_BEFORE")
	// The dead worker's point must have been recovered — normally by
	// lease expiry (attributed reassignment); under extreme scheduling
	// skew a work-steal can rescue it first, which is equally correct.
	if snap.Expired == 0 && snap.Stolen == 0 {
		t.Errorf("kill-before-post triggered neither lease expiry nor a steal (snapshot: %+v)", snap)
	}
	recovered := snap.Stolen > 0
	for _, r := range snap.Reassigned {
		if r.Worker == "worker-0" {
			recovered = true
		}
	}
	if !recovered {
		t.Errorf("no reassignment attributed to the killed worker-0: %+v", snap.Reassigned)
	}
}

// TestWorkerSIGKILLAfterPost kills worker 0 immediately after its first
// result the coordinator counted (a post dropped as a duplicate, its
// unit stolen and settled first by worker 1, does not arm the kill). The
// settled point must stay counted exactly once; only leases the dead worker still held (usually none at that
// boundary) may be reassigned.
func TestWorkerSIGKILLAfterPost(t *testing.T) {
	snap := runCrashCampaign(t, "WTCP_FLEET_TEST_KILL_AFTER")
	var w0 *WorkerHealth
	for i := range snap.Workers {
		if snap.Workers[i].Name == "worker-0" {
			w0 = &snap.Workers[i]
		}
	}
	if w0 == nil {
		t.Fatalf("worker-0 missing from fleet snapshot: %+v", snap.Workers)
	}
	if w0.Completed != 1 {
		t.Errorf("killed-after-post worker completed %d units, want exactly 1", w0.Completed)
	}
}

// TestWorkerSIGKILLUnderResultFaults kills worker 0 right after its
// first result post — whose reply usually carried its next grant, which
// then dies with it and lapses (TestLostGrantLapsesAtTTL pins that path
// deterministically) — while every worker's result posts are dropped,
// duplicated and delayed. Every point still settles exactly once,
// bit-identical to the sequential engine.
func TestWorkerSIGKILLUnderResultFaults(t *testing.T) {
	plan := `{"result":{"drop_prob":0.2,"dup_prob":0.5,"delay_prob":0.3,"delay_ms":30},"seed":11}`
	runCrashCampaign(t, "WTCP_FLEET_TEST_KILL_AFTER", "WTCP_FLEET_TEST_FAULTS="+plan)
}

// TestFleetSmoke is the CI smoke: a four-worker sharded campaign with a
// chaos-injected SIGKILL of a live lease holder (the external-kill
// path, exercising the coordinator's watch loop rather than the
// deterministic self-kill hooks), verified against the sequential
// engine. `make fleet-smoke` runs exactly this test under -race.
func TestFleetSmoke(t *testing.T) {
	c := Campaign{
		Sweeps:       []string{experiment.SweepFig7},
		Replications: 3,
		TransferKB:   2000,
		PacketSizes:  []int{128, 512},
		BadPeriods:   []string{"1s", "2s"},
	}
	wantFig7, err := func() ([]experiment.ThroughputPoint, error) {
		opt, err := c.Options()
		if err != nil {
			return nil, err
		}
		return experiment.Fig7(context.Background(), opt)
	}()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.json")
	snap, runErr := RunLocal(context.Background(), LocalOptions{
		Campaign:      c,
		Workers:       4,
		LedgerPath:    ledger,
		StatusPath:    filepath.Join(dir, "fleet-status.json"),
		LeaseTTL:      400 * time.Millisecond,
		Faults:        &chaos.FleetFaults{Kill: &chaos.WorkerKill{Worker: 1, AfterUnits: 0}},
		WorkerCommand: testWorkerCommand(t, nil),
		Log:           t.Logf,
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if snap.Settled != snap.TotalUnits || snap.TotalUnits != 4 {
		t.Fatalf("smoke campaign settled %d/%d, want 4/4", snap.Settled, snap.TotalUnits)
	}

	opt, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ledger
	gotFig7, err := experiment.Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFig7, gotFig7) {
		t.Errorf("smoke results differ from sequential run:\nwant %s\ngot  %s",
			renderTput(wantFig7), renderTput(gotFig7))
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet-status.json")); err != nil {
		t.Errorf("fleet status file missing: %v", err)
	}
}
