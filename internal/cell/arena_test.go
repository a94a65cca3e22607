package cell

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/units"
)

// The tests named for the packet arena now pin what replaced it: a data
// segment travels by value on the MSS grid, and a live count (segCount)
// conserves what the network holds.

// retireAll retires every live segment behind the engine's back.
func retireAll(e *engine) {
	for e.segs.live > 0 {
		e.retire(0)
	}
}

// TestArenaAllocFreeRecycles pins the counts Result.Arena reports:
// every admission is one of Allocs, PeakLive is the most live at once,
// and LiveAtEnd is what is left.
func TestArenaAllocFreeRecycles(t *testing.T) {
	e := benchEngine(t, smallConfig(4))
	e.admit()
	e.admit()
	e.retire(1)
	e.admit()
	if st := e.segs.stats(); st != (ArenaStats{Allocs: 3, PeakLive: 2, LiveAtEnd: 2}) || e.fault != nil {
		t.Fatalf("stats %+v, fault %v", st, e.fault)
	}
}

// TestArenaRefcountHoldsSlot follows one segment through the network: it
// is live from Transmit, through the wired hop and its base-station
// queue, until the ARQ acknowledges it — and the copy delivered to the
// sink is not counted.
func TestArenaRefcountHoldsSlot(t *testing.T) {
	e := benchEngine(t, smallConfig(4))
	const f = int32(2)
	e.cur = f
	e.Transmit(3*e.mss, units.ByteSize(e.mss), false)
	kind, flow, _, seq := e.cal.pop()
	if kind != evWiredArrive || flow != f || seq != 3*e.mss || e.segs.live != 1 {
		t.Fatalf("wired arrival %d flow %d seq %d, live %d", kind, flow, seq, e.segs.live)
	}
	e.wiredArrive(f, seq)
	if e.qCount[f] != 1 || e.qHeadSeg(f) != 3 || e.segs.live != 1 {
		t.Fatalf("queued %d, head segment %d, live %d", e.qCount[f], e.qHeadSeg(f), e.segs.live)
	}
	e.onAttemptSucceeded(e.bsOf(f), f)
	if e.qCount[f] != 0 || e.segs.live != 0 || e.fault != nil {
		t.Fatalf("after the ack: queued %d, live %d, fault %v", e.qCount[f], e.segs.live, e.fault)
	}
}

// TestArenaMisuseLatched pins the conservation latch: retiring a segment
// when none is live is an engine bug, named with the flow and the
// instant, and the first such fault is the one kept.
func TestArenaMisuseLatched(t *testing.T) {
	e := benchEngine(t, smallConfig(4))
	e.admit()
	e.retire(1)
	if e.fault != nil {
		t.Fatalf("a balanced retire faulted: %v", e.fault)
	}
	e.retire(1) // double retire
	if e.fault == nil || !strings.HasPrefix(e.fault.Error(), "cell: segment-conservation: flow 1 retired a segment with none live at 0s") {
		t.Fatalf("double retire latched %v", e.fault)
	}
	first := e.fault
	e.retire(2)
	if e.fault != first || e.segs.live != 0 {
		t.Fatalf("latched fault overwritten (%v) or live count moved (%d)", e.fault, e.segs.live)
	}
}

// TestArenaSize pins the MSS grid a segment's size is read from: every
// segment but the last carries a full MSS, the last what is left of the
// transfer, and the radio times the header plus that.
func TestArenaSize(t *testing.T) {
	cfg := smallConfig(1)
	cfg.TransferSize = 10000 // 1496-byte segments: six full, then 1024
	e := benchEngine(t, cfg)
	for _, c := range []struct{ seq, want int64 }{{0, 1496}, {5 * 1496, 1496}, {6 * 1496, 1024}} {
		if got := e.segLen(c.seq); got != c.want {
			t.Errorf("segLen(%d) = %d, want %d", c.seq, got, c.want)
		}
	}
	e.qPush(0, 6)
	e.transmit(0, 0)
	if e.curSeq[0] != 6*1496 || e.curLen[0] != 1024 {
		t.Fatalf("radio holds seq %d length %d, want %d and 1024", e.curSeq[0], e.curLen[0], 6*1496)
	}
}

// TestOffGridTransmitFaults pins the grid check: a segment whose start is
// not a multiple of the MSS, or whose payload is not the grid's length
// for it, would be misread downstream, so Transmit refuses it and the
// run fails with the named fault.
func TestOffGridTransmitFaults(t *testing.T) {
	cfg := smallConfig(8)
	for _, c := range []struct {
		seq     int64
		payload units.ByteSize
	}{{100, 1496}, {1496, 1000}, {0, 1497}} {
		res, err := runInjected(t, cfg, func(e *engine) {
			e.cur = 5
			e.Transmit(c.seq, c.payload, true)
		})
		want := fmt.Sprintf("cell: off-grid segment: flow 5 seq %d payload %d (mss 1496, transfer 65536)", c.seq, c.payload)
		if res != nil || err == nil || err.Error() != want {
			t.Errorf("seq %d payload %d: result %v, error %v, want %q", c.seq, c.payload, res, err, want)
		}
	}
}

// ---- the chaos conservation property (run under -race in CI) ----

// TestArenaRefcountsUnderChaos is the conservation property test: across
// a grid of drop/duplicate/reorder fault rates and seeds, every run must
// end with zero live segments and no conservation fault — chaos may
// destroy throughput, never segments. Deliveries travel by value, so a
// dropped, duplicated or reordered one is not counted; what the grid
// stresses is that the ARQ retires each head exactly once while its
// copies are still in flight, alongside the wired hop's tail drops and
// the discards after RTmax.
func TestArenaRefcountsUnderChaos(t *testing.T) {
	grids := []faults{
		{dropP: 0.3},
		{dupP: 0.3},
		{reorderP: 0.3},
		{dropP: 0.15, dupP: 0.15, reorderP: 0.15},
		{dropP: 0.5, dupP: 0.5, reorderP: 0.5},
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
				cfg.faults = chaos
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
					t.Errorf("%d segments never retired (chaos %+v)", res.Arena.LiveAtEnd, chaos)
				}
				if chaos.dropP > 0 && res.ChaosDrops == 0 {
					t.Error("drop chaos configured but no drops recorded")
				}
				if chaos.dupP > 0 && res.ChaosDups == 0 {
					t.Error("dup chaos configured but no dups recorded")
				}
				if chaos.reorderP > 0 && res.ChaosDelays == 0 {
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
		t.Errorf("%d segments never retired on the discard path", b.Arena.LiveAtEnd)
	}
}
