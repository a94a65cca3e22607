package core

import (
	"fmt"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// snoopFaultPlans is the chaos grid for the snoop property tests: each
// entry perturbs one packet pathology (or a mix) on the links the snoop
// agent watches — corrupted data on the downlink fuels local
// retransmissions, duplicated and reordered ACKs on the uplink stress
// dupack suppression.
var snoopFaultPlans = []struct {
	name string
	plan *chaos.Config
}{
	{"corrupt-down", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, CorruptProb: 0.1},
	}}},
	{"dup-up", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessUp, DupProb: 0.15},
	}}},
	{"reorder-up", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessUp, ReorderProb: 0.15, ReorderDelay: 20 * time.Millisecond},
	}}},
	{"dup-down", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, DupProb: 0.15},
	}}},
	{"mixed", &chaos.Config{Packets: []chaos.PacketFaults{
		{Link: chaos.WirelessDown, CorruptProb: 0.05, DupProb: 0.05},
		{Link: chaos.WirelessUp, DupProb: 0.05, ReorderProb: 0.05, ReorderDelay: 10 * time.Millisecond},
	}}},
}

// TestSnoopPropertiesUnderChaos drives the snoop agent through the
// loss/duplication/reordering grid, several seeds per plan, and checks
// the cache-discipline invariants on every run:
//
//  1. the cache drains to zero by the end of a completed transfer —
//     every cached copy is eventually acked past or evicted at the cap;
//  2. no segment is locally retransmitted beyond the attempt cap
//     (trace SnoopRetx events carry the per-segment attempt counter);
//  3. dupack suppression never hides a genuine loss from the fixed-host
//     sender — the transfer still completes, and the run stays
//     oracle-clean under the snoop shadow rules.
//
// Run under -race via `make zoo-smoke`.
func TestSnoopPropertiesUnderChaos(t *testing.T) {
	cap := bs.SnoopConfig{}.WithDefaults().MaxLocalRetx
	for _, fp := range snoopFaultPlans {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fp.name, seed), func(t *testing.T) {
				cfg := WAN(bs.Snoop, 576, 2*time.Second)
				cfg.TransferSize = 30 * units.KB
				cfg.Seed = seed
				cfg.Chaos = fp.plan
				cfg.CollectTrace = true
				cfg.Oracle = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !res.Completed {
					t.Fatalf("transfer wedged (aborted=%v %s): a suppressed dupack or lost cache entry stalled the fixed host",
						res.Aborted, res.AbortReason)
				}
				if res.SnoopCacheLen != 0 {
					t.Errorf("snoop cache holds %d segments after completion; want a fully drained cache", res.SnoopCacheLen)
				}
				retx := 0
				for i, e := range res.Trace.Events() {
					if e.Kind != trace.SnoopRetx {
						continue
					}
					retx++
					if e.Attempt > cap {
						t.Errorf("event %d: segment %d locally retransmitted attempt %d, past the cap %d",
							i, e.Seq, e.Attempt, cap)
					}
				}
				if uint64(retx) != res.BS.SnoopLocalRetx {
					t.Errorf("trace shows %d local retransmissions, stats show %d", retx, res.BS.SnoopLocalRetx)
				}
				if n := res.Trace.Count(trace.SnoopSuppress); uint64(n) != res.BS.SnoopSuppressedDupAcks {
					t.Errorf("trace shows %d suppressed dupacks, stats show %d", n, res.BS.SnoopSuppressedDupAcks)
				}
			})
		}
	}
}

// TestSnoopChaosDeterminism replays one chaotic snoop run with a fixed
// seed: faults, suppressions, and local retransmissions must all land
// identically, or the golden gate and the property grid above are
// measuring noise.
func TestSnoopChaosDeterminism(t *testing.T) {
	once := func() *Result {
		cfg := WAN(bs.Snoop, 576, 2*time.Second)
		cfg.TransferSize = 30 * units.KB
		cfg.Seed = 11
		cfg.Chaos = snoopFaultPlans[4].plan // the mixed plan
		cfg.CollectTrace = true
		cfg.Oracle = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := once(), once()
	if d := trace.DiffEvents(a.Trace.Events(), b.Trace.Events(), 0); d != nil {
		t.Fatalf("two replays of one seed diverge: %v", d)
	}
	if a.BS != b.BS {
		t.Errorf("base-station counters differ across replays:\n%+v\n%+v", a.BS, b.BS)
	}
}
