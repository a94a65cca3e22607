package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// TestWarmRunAllocs pins what a run costs the allocator once the kernel
// and packet pools are warm: building the topology and growing a few
// per-run maps, nothing per packet, per fragment, or per event. The
// parent of the packet pool read about 4 000 (WAN) and 9 200 (LAN); one
// stray object per wired packet would add at least 180.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"wan", WAN(bs.EBSN, PaperWANPacketDefault, 2*time.Second), 250},
		{"lan", LAN(bs.EBSN, 800*time.Millisecond), 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				res, err := Run(tc.cfg)
				if err != nil || !res.Completed {
					t.Fatalf("run: completed=%v err=%v", res != nil && res.Completed, err)
				}
			}
			run() // warm the pools
			if got := testing.AllocsPerRun(10, run); got > tc.max {
				t.Errorf("a warm %s run allocated %.0f objects, want at most %.0f", tc.name, got, tc.max)
			}
		})
	}
}

// poolFaultPlans is the chaos grid of the packet-lifetime property test.
// Each plan exercises a different ownership hand-off: a corrupted delivery
// is consumed by the injector (the link releases it), a duplicate is a
// by-value copy no pool owns, a reordered packet is held by the injector
// across the hop and re-injected, a duplicated notification reaches the
// source twice, a handoff flushes the station's state and cuts the cell
// off for the gap.
var poolFaultPlans = []struct {
	name string
	plan *chaos.Config
}{
	{"corrupt", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, CorruptProb: 0.1},
		{Link: chaos.WirelessUp, CorruptProb: 0.1},
	}}},
	{"dup", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, DupProb: 0.15},
		{Link: chaos.WirelessUp, DupProb: 0.15},
	}}},
	{"reorder", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, ReorderProb: 0.15, ReorderDelay: 40 * time.Millisecond},
		{Link: chaos.WirelessUp, ReorderProb: 0.15, ReorderDelay: 20 * time.Millisecond},
	}}},
	{"notify-dup", &chaos.Config{Notify: chaos.NotifyFaults{DupProb: 0.3, DelayProb: 0.2, Delay: 150 * time.Millisecond}}},
	{"wired-dup", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WiredFwd, DupProb: 0.1, ReorderProb: 0.1, ReorderDelay: 120 * time.Millisecond},
		{Link: chaos.WiredRev, DupProb: 0.1},
	}}},
	{"mixed+crash", &chaos.Config{
		Packets: []chaos.PacketFaults{
			{Link: chaos.WirelessDown, CorruptProb: 0.05, DupProb: 0.05, ReorderProb: 0.05, ReorderDelay: 30 * time.Millisecond},
			{Link: chaos.WirelessUp, CorruptProb: 0.05, DupProb: 0.05, ReorderProb: 0.05, ReorderDelay: 10 * time.Millisecond},
		},
		Crashes: []chaos.Crash{{At: 8 * time.Second, Downtime: time.Second}},
	}},
	{"handoff", &chaos.Config{Handoff: &chaos.Handoff{Dwell: time.Second, Gap: 100 * time.Millisecond, DupAcks: true}}},
}

// TestPacketPoolUnderChaos is the reference-hygiene property test of the
// per-flow path, modelled on the cell engine's: across fault plans, seeds,
// schemes and both presets, every run must end with no latched lifetime
// fault (Run would return it), zero live packets after the teardown
// drain, and results equal to a second identical run — chaos may destroy
// throughput, never references, and recycling may never leak one run's
// state into the next. Run under -race via `make check`.
func TestPacketPoolUnderChaos(t *testing.T) {
	schemes := []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN, bs.Snoop, bs.SplitConnection}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, fp := range poolFaultPlans {
		for _, scheme := range schemes {
			for _, lan := range []bool{false, true} {
				for _, seed := range seeds {
					fp, scheme, lan, seed := fp, scheme, lan, seed
					t.Run(fmt.Sprintf("%s/%v/lan=%v/seed%d", fp.name, scheme, lan, seed), func(t *testing.T) {
						t.Parallel()
						cfg := WAN(scheme, 576, 2*time.Second)
						cfg.TransferSize = 30 * units.KB
						if lan {
							cfg = LAN(scheme, 800*time.Millisecond)
							cfg.TransferSize = 256 * units.KB
						}
						cfg.Seed = seed
						cfg.Checks = true
						cfg.Horizon = 10 * time.Minute
						if scheme != bs.SplitConnection {
							// Split mode takes no fault plan; it still runs
							// the grid for its relay's two connections.
							cfg.Chaos = fp.plan
						}
						a, err := Run(cfg)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if a.Packets.LiveAtEnd != 0 {
							t.Errorf("%d packets still referenced after teardown (%+v)", a.Packets.LiveAtEnd, a.Packets)
						}
						if a.Packets.Allocs == 0 || a.Packets.PeakLive == 0 {
							t.Errorf("the run drew no packets from its pool: %+v", a.Packets)
						}
						b, err := Run(cfg)
						if err != nil {
							t.Fatalf("second run: %v", err)
						}
						a.Config, b.Config = Config{}, Config{}
						if !reflect.DeepEqual(a, b) {
							t.Errorf("two runs of one configuration differ:\n%+v\n%+v", a, b)
						}
					})
				}
			}
		}
	}
}

// TestPoolFaultIsAProtocolBug: a lifetime fault latched during a run comes
// back from the run as an invariant violation, which the supervision
// layer files under protocol bugs (fail fast, never retried).
func TestPoolFaultIsAProtocolBug(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 10 * units.KB
	tp, err := newTopology(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	p := tp.ids.New(packet.Data)
	p.Release()
	p.Release()
	_, err = tp.release()
	if err == nil {
		t.Fatal("a double release went unreported")
	}
	if got := Classify(err); got != ClassProtocolBug {
		t.Errorf("Classify(%v) = %v, want %v", err, got, ClassProtocolBug)
	}
}

// TestHeapHighWaterStaysSmall pins the kernel's occupancy on the paper's
// WAN preset: the live set is a handful of events and a timer owns at
// most one heap slot, so the heap never approaches the 80 slots it
// reached when every timer reset and every completed reassembly left a
// far-future tombstone behind.
func TestHeapHighWaterStaysSmall(t *testing.T) {
	for _, scheme := range bs.Schemes() {
		for _, size := range []units.ByteSize{128, 576, 1536} {
			for _, bad := range []time.Duration{time.Second, 4 * time.Second} {
				res, err := Run(WAN(scheme, size, bad))
				if err != nil {
					t.Fatalf("%v/%d/%v: %v", scheme, size, bad, err)
				}
				// 32 is the event queue's sorted-layout bound (sim's
				// sortedMax): a preset run never spills into the heap.
				if hw := res.Kernel.HeapHighWater; hw > 32 || hw == 0 {
					t.Errorf("%v/%d/%v: heap high-water %d, want 1..32 (%+v)", scheme, size, bad, hw, res.Kernel)
				}
				if res.Kernel.Fired != res.Events {
					t.Errorf("%v/%d/%v: kernel fired %d, result reports %d", scheme, size, bad, res.Kernel.Fired, res.Events)
				}
			}
		}
	}
}

// TestPerRunSetsPlateau: on a transfer forty times the paper's, the
// base station keeps no record of a packet that has left it. (The
// reassembler's memory of finished groups, the other set that used to
// grow with the run, is bounded by one reassembly timeout; the ip tests
// TestFinishedGroupsAreForgottenAfterOneTimeout and
// TestForgottenIDFinishesAgain pin that.)
func TestPerRunSetsPlateau(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 4 * units.MB
	cfg.ARQ = bs.ARQConfig{RTmax: 3} // force whole-packet discards too
	tp, err := newTopology(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	tp.sender.Start()
	for !tp.sender.Done() {
		if ok, err := tp.sim.Step(); !ok || err != nil {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	if tp.bs.Stats().ARQDiscards == 0 {
		t.Fatal("workload too small: no ARQ discard")
	}
	if n := tp.bs.Backlog(); n != 0 {
		t.Errorf("base station still holds records of %d packets after the transfer", n)
	}
	if stats, err := tp.release(); err != nil || stats.LiveAtEnd != 0 {
		t.Errorf("teardown: %+v, %v", stats, err)
	}
}

// TestSplitHalvesDrainThePool covers split mode, which has no
// base-station agent: both TCP halves and the relay share one pool.
func TestSplitHalvesDrainThePool(t *testing.T) {
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.SACKVariant} {
		cfg := LAN(bs.SplitConnection, 800*time.Millisecond)
		cfg.TransferSize = units.MB
		cfg.Variant = v
		cfg.Oracle = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Packets.LiveAtEnd != 0 || res.Packets.Allocs == 0 {
			t.Errorf("%v: completed=%v packets=%+v", v, res.Completed, res.Packets)
		}
	}
}
