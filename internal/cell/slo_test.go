package cell

import (
	"context"
	"runtime"
	"testing"
	"time"

	"wtcp/internal/sim"
)

// Scale SLOs: the tentpole's contract is that a whole cell — tens of
// thousands of concurrent flows — simulates within a fixed wall-clock
// and heap budget. The bounds are deliberately loose multiples of the
// measured cost on a developer machine (so CI noise does not flake
// them) but tight enough that an accidental O(F) scan per event or a
// per-packet heap object blows straight through them.

// sloRun executes Preset(n) under a wall/heap budget and sanity-checks
// the outcome. The heap ceiling rides sim.Budget's live-heap probe; the
// wall ceiling is enforced both by the budget (which aborts a runaway
// run promptly) and by the test's own measurement.
func sloRun(t *testing.T, n int, wall time.Duration, heap int64) *Result {
	t.Helper()
	return sloRunConfig(t, Preset(n), wall, heap)
}

func sloRunConfig(t *testing.T, cfg Config, wall time.Duration, heap int64) *Result {
	t.Helper()
	n := cfg.Flows
	start := time.Now()
	res, err := RunContext(context.Background(), cfg, sim.Budget{
		WallClock:    wall,
		MaxHeapBytes: heap,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Preset(%d) run failed: %v", n, err)
	}
	if elapsed > wall {
		t.Errorf("Preset(%d) took %v, SLO %v", n, elapsed, wall)
	}
	if res.CompletedFlows < n*9/10 {
		t.Errorf("Preset(%d): only %d flows completed inside the horizon", n, res.CompletedFlows)
	}
	if res.Arena.LiveAtEnd != 0 {
		t.Errorf("Preset(%d): leaked %d arena slots", n, res.Arena.LiveAtEnd)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("Preset(%d): wall %v, %d events (%.0f ev/s), %d/%d flows, peak arena %d, heap-alloc %d MB",
		n, elapsed, res.Events, float64(res.Events)/elapsed.Seconds(),
		res.CompletedFlows, n, res.Arena.PeakLive, ms.HeapAlloc>>20)
	return res
}

// TestCellSLO1k is the CI smoke bound: a thousand-flow cell over 60
// virtual seconds must finish fast and small. Runs under -race too
// (with a relaxed wall bound).
func TestCellSLO1k(t *testing.T) {
	wall := 10 * time.Second
	if raceEnabled {
		wall = 60 * time.Second
	}
	sloRun(t, 1000, wall, 512<<20)
}

// TestCellSLO10k is the mid-scale bound.
func TestCellSLO10k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("mid-scale SLO runs in full non-race mode only")
	}
	sloRun(t, 10000, 30*time.Second, 1<<30)
}

// TestCellSLO10kPerFlow bounds the configuration the shared-channel
// presets hide: 10 000 flows with a fading channel and an RNG stream
// each, under the policy that queries them hardest. The heap ceiling is
// the point — set-up that draws every channel's timeline out to a 30 min
// horizon holds 450 MB before the first event and trips it at once, and
// one that gives every stream its 5 KB register, seeded or not, passes
// 64 MB a few virtual seconds in; the engine holds about 14 MB, a
// kilobyte and a half per flow. The collection beforehand is because the
// probe reads the process's heap, earlier tests' garbage included.
func TestCellSLO10kPerFlow(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("mid-scale SLO runs in full non-race mode only")
	}
	runtime.GC()
	res := sloRunConfig(t, perFlow10k(CSDP), 20*time.Second, 64<<20)
	if !res.Completed {
		t.Errorf("%d/10000 flows completed inside the 30 min horizon", res.CompletedFlows)
	}
}

// TestCellSLO50k is the headline bound from the issue: 50k flows x 60
// virtual seconds inside a strict wall-clock budget, peak heap under a
// fixed ceiling.
func TestCellSLO50k(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale SLO runs in full non-race mode only")
	}
	sloRun(t, 50000, 120*time.Second, 2<<30)
}
