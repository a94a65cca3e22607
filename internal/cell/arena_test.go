package cell

import (
	"fmt"
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/units"
)

// ---- arena unit tests ----

func TestArenaAllocFreeRecycles(t *testing.T) {
	a := newArena(4)
	s1 := a.alloc(1, 0, 1496)
	s2 := a.alloc(2, 1496, 1496)
	if s1 == s2 {
		t.Fatal("distinct allocations shared a slot")
	}
	if a.Live() != 2 {
		t.Fatalf("live %d, want 2", a.Live())
	}
	a.decref(s1)
	if a.Live() != 1 {
		t.Fatalf("live %d after free, want 1", a.Live())
	}
	if s3 := a.alloc(3, 0, 100); s3 != s1 {
		t.Fatalf("freed slot %d not recycled (got %d)", s1, s3)
	}
	st := a.stats()
	if st.Allocs != 3 || st.PeakLive != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestArenaRefcountHoldsSlot(t *testing.T) {
	a := newArena(4)
	s := a.alloc(1, 0, 1496)
	a.incref(s)
	a.decref(s)
	if a.Live() != 1 {
		t.Fatal("slot freed while a reference remained")
	}
	a.decref(s)
	if a.Live() != 0 || a.misuse != nil {
		t.Fatalf("live %d misuse %v", a.Live(), a.misuse)
	}
}

func TestArenaMisuseLatched(t *testing.T) {
	a := newArena(4)
	s := a.alloc(1, 0, 1496)
	a.decref(s)
	a.decref(s) // double free
	if a.misuse == nil {
		t.Fatal("double free not latched")
	}
	first := a.misuse
	a.incref(s) // incref of free slot: also misuse, but first wins
	if a.misuse != first {
		t.Fatal("latched misuse overwritten")
	}
}

func TestArenaSize(t *testing.T) {
	a := newArena(4)
	s := a.alloc(1, 0, 1496)
	if got := a.size(s); got != 1536*units.ByteSize(1) {
		t.Fatalf("size %v, want 1536", got)
	}
}

// ---- the chaos refcount property (ISSUE satellite: no leaks, no
// double-frees under loss/dup/reorder; run under -race in CI) ----

// TestArenaRefcountsUnderChaos is the reference-hygiene property test:
// across a grid of drop/duplicate/reorder fault rates and seeds, every
// run must end with zero live arena slots and no latched refcount
// misuse — chaos may destroy throughput, never references. Deliveries
// travel by value, so a dropped, duplicated or reordered one holds no
// slot; what the grid stresses is that the ARQ releases each head exactly
// once while its copies are still in flight, alongside the wired hop's
// tail drops and the discards after RTmax.
func TestArenaRefcountsUnderChaos(t *testing.T) {
	grids := []Chaos{
		{DropP: 0.3},
		{DupP: 0.3},
		{ReorderP: 0.3},
		{DropP: 0.15, DupP: 0.15, ReorderP: 0.15},
		{DropP: 0.5, DupP: 0.5, ReorderP: 0.5, ReorderDelay: 20 * time.Millisecond},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		grids = grids[3:4]
		seeds = seeds[:1]
	}
	for gi, chaos := range grids {
		for _, seed := range seeds {
			gi, chaos, seed := gi, chaos, seed
			t.Run(fmt.Sprintf("grid%d/seed%d", gi, seed), func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(8)
				cfg.TransferSize = 32 * units.KB
				cfg.Chaos = chaos
				cfg.Seed = seed
				cfg.EBSN = true
				// Heavy chaos may legitimately keep flows from finishing;
				// cap the run so the test stays fast. Reference hygiene
				// must hold either way.
				cfg.Horizon = 2 * time.Minute
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.Arena.LiveAtEnd != 0 {
					t.Errorf("leaked %d arena slots (chaos %+v)", res.Arena.LiveAtEnd, chaos)
				}
				if chaos.DropP > 0 && res.ChaosDrops == 0 {
					t.Error("drop chaos configured but no drops recorded")
				}
				if chaos.DupP > 0 && res.ChaosDups == 0 {
					t.Error("dup chaos configured but no dups recorded")
				}
				if chaos.ReorderP > 0 && res.ChaosDelays == 0 {
					t.Error("reorder chaos configured but no delays recorded")
				}
			})
		}
	}
}

// TestChaosOffDrawsNothing pins the isolation contract: a zero-value
// Chaos leaves the run bit-identical to one that never had the chaos
// RNG split consulted (the split happens either way; only draws differ).
func TestChaosOffDrawsNothing(t *testing.T) {
	cfg := smallConfig(4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.ChaosDrops+a.ChaosDups+a.ChaosDelays != 0 {
		t.Fatal("chaos counters non-zero without chaos")
	}
	// FIFO stresses the stale-head path under discards; still no chaos.
	cfg.Policy = FIFO
	cfg.Channel = errmodel.PaperLAN(200 * time.Millisecond)
	cfg.RTmax = 2 // force discards
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.Arena.LiveAtEnd != 0 {
		t.Errorf("leaked %d slots on the discard path", b.Arena.LiveAtEnd)
	}
}
