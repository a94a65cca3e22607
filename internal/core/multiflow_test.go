package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

func multiFlowBase(scheme bs.Scheme) MultiFlowConfig {
	base := WAN(scheme, 576, 2*time.Second)
	base.TransferSize = 20 * units.KB // per flow, for test speed
	return MultiFlowConfig{Base: base, Flows: 3}
}

func TestMultiFlowValidation(t *testing.T) {
	cfg := multiFlowBase(bs.EBSN)
	cfg.Flows = 0
	if _, err := RunMultiFlow(cfg); err == nil {
		t.Error("zero flows accepted")
	}
	for _, scheme := range []bs.Scheme{bs.Snoop, bs.SplitConnection} {
		cfg := multiFlowBase(scheme)
		if _, err := RunMultiFlow(cfg); err == nil {
			t.Errorf("%v accepted for multi-flow", scheme)
		}
	}
	bad := multiFlowBase(bs.EBSN)
	bad.Base.PacketSize = 10
	if _, err := RunMultiFlow(bad); err == nil {
		t.Error("invalid base config accepted")
	}
}

func TestMultiFlowAllComplete(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
		r, err := RunMultiFlow(multiFlowBase(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%v: not all flows completed", scheme)
		}
		if len(r.PerFlow) != 3 {
			t.Fatalf("PerFlow = %d", len(r.PerFlow))
		}
		for i, f := range r.PerFlow {
			if !f.Completed || f.ThroughputKbps <= 0 {
				t.Errorf("%v flow %d: %+v", scheme, i, f)
			}
		}
	}
}

func TestMultiFlowEBSNRoutedPerFlow(t *testing.T) {
	// Every flow's source must receive EBSNs (the notification is
	// addressed from the failing packet, not broadcast or dropped).
	cfg := multiFlowBase(bs.EBSN)
	cfg.Base.Channel.MeanBad = 4 * time.Second
	r, err := RunMultiFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.BS.EBSNsSent == 0 {
		t.Fatal("no EBSNs under a bursty channel")
	}
	flowsWithResets := 0
	var totalTimeouts uint64
	for _, f := range r.PerFlow {
		if f.EBSNResets > 0 {
			flowsWithResets++
		}
		totalTimeouts += f.Timeouts
	}
	if flowsWithResets < 2 {
		t.Errorf("only %d/3 flows saw EBSN resets (routing broken?)", flowsWithResets)
	}
	// EBSN still suppresses timeouts with multiple flows.
	basic := multiFlowBase(bs.Basic)
	basic.Base.Channel.MeanBad = 4 * time.Second
	rb, err := RunMultiFlow(basic)
	if err != nil {
		t.Fatal(err)
	}
	var basicTimeouts uint64
	for _, f := range rb.PerFlow {
		basicTimeouts += f.Timeouts
	}
	if totalTimeouts >= basicTimeouts && basicTimeouts > 0 {
		t.Errorf("EBSN timeouts %d not below basic %d across flows", totalTimeouts, basicTimeouts)
	}
}

func TestMultiFlowEBSNBeatsBasicAggregate(t *testing.T) {
	agg := func(scheme bs.Scheme) float64 {
		var sum float64
		for seed := int64(1); seed <= 3; seed++ {
			cfg := multiFlowBase(scheme)
			cfg.Base.Channel.MeanBad = 4 * time.Second
			cfg.Base.Seed = seed
			r, err := RunMultiFlow(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.AggregateKbps / 3
		}
		return sum
	}
	basic := agg(bs.Basic)
	ebsn := agg(bs.EBSN)
	if ebsn <= basic {
		t.Errorf("multi-flow EBSN aggregate %.2f not above basic %.2f", ebsn, basic)
	}
}

func TestMultiFlowFairness(t *testing.T) {
	r, err := RunMultiFlow(multiFlowBase(bs.EBSN))
	if err != nil {
		t.Fatal(err)
	}
	if r.Fairness < 0.6 || r.Fairness > 1.0000001 {
		t.Errorf("Jain fairness = %v across identical flows", r.Fairness)
	}
}

// oneFlowGrid is 4 variants x {basic, localrecovery, ebsn} x {WAN 576 B /
// 2 s / 30 KB, LAN 800 ms / 512 KB}.
func oneFlowGrid() []Config {
	var grid []Config
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
			wan := WAN(scheme, 576, 2*time.Second)
			wan.TransferSize = 30 * units.KB
			lan := LAN(scheme, 800*time.Millisecond)
			lan.TransferSize = 512 * units.KB
			for _, cfg := range []Config{wan, lan} {
				cfg.Variant = v
				grid = append(grid, cfg)
			}
		}
	}
	return grid
}

// TestMultiFlowOneFlowEqualsRun pins that a one-flow multi-flow run is Run:
// the same builder wires both, so they agree to the bit. The hand-wired
// copy RunMultiFlow used to keep failed this on the SACK/LAN/basic cell —
// its sinks never advertised SACK blocks.
func TestMultiFlowOneFlowEqualsRun(t *testing.T) {
	for _, cfg := range oneFlowGrid() {
		name := fmt.Sprintf("%v/%v/%v", cfg.Variant, cfg.Scheme, cfg.PacketSize)
		rs, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rm, err := RunMultiFlow(MultiFlowConfig{Base: cfg, Flows: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := rm.PerFlow[0]
		if math.Float64bits(f.ThroughputKbps) != math.Float64bits(rs.Summary.ThroughputKbps) ||
			f.Timeouts != rs.Sender.Timeouts || f.EBSNResets != rs.Sender.EBSNResets {
			t.Errorf("%s: one flow %+v, Run %.6f kbps, %d timeouts, %d EBSN resets",
				name, f, rs.Summary.ThroughputKbps, rs.Sender.Timeouts, rs.Sender.EBSNResets)
		}
		if rm.BS != rs.BS {
			t.Errorf("%s: base-station counters %+v, Run had %+v", name, rm.BS, rs.BS)
		}
	}
}

// TestMultiFlowPinnedResults holds multi-flow output to the values the
// hand-wired RunMultiFlow produced before it moved onto newTopology
// (recorded at that commit; Tahoe, so the SACK fix does not touch them):
// throughput bits, timeouts and EBSN resets per flow, and the EBSNs the
// base station sent.
func TestMultiFlowPinnedResults(t *testing.T) {
	type flow struct {
		tputBits             uint64
		timeouts, ebsnResets uint64
	}
	three := func(scheme bs.Scheme) MultiFlowConfig {
		base := WAN(scheme, 576, 4*time.Second)
		base.TransferSize = 40 * units.KB
		return MultiFlowConfig{Base: base, Flows: 3}
	}
	eight := MultiFlowConfig{Base: WAN(bs.EBSN, 576, 4*time.Second), Flows: 8}
	eight.Base.TransferSize = 400 * units.KB
	eight.Base.Seed = 7
	for _, tc := range []struct {
		name      string
		cfg       MultiFlowConfig
		ebsnsSent uint64
		flows     []flow
	}{
		{"basic/3", three(bs.Basic), 0, []flow{
			{0x400bc6212c433c2e, 5, 0},  // 3.471743 kbps
			{0x3ff310f5c6a08fa5, 6, 0},  // 1.191641
			{0x3ff5f998d0430596, 11, 0}, // 1.373437
		}},
		{"localrecovery/3", three(bs.LocalRecovery), 0, []flow{
			{0x4001efe7a52afdbb, 2, 0}, // 2.242141
			{0x4003a3d8e00c0b49, 1, 0}, // 2.455004
			{0x4002aabab486fe81, 1, 0}, // 2.333364
		}},
		{"ebsn/3", three(bs.EBSN), 1193, []flow{
			{0x40045ac849acf8ae, 0, 465}, // 2.544327
			{0x400bbe1998e6c750, 0, 263}, // 3.467822
			{0x4003aaab9f46be12, 0, 465}, // 2.458335
		}},
		{"ebsn/8", eight, 67368, []flow{
			{0x3ff14abbf8df8fc5, 3, 8458}, // 1.080746
			{0x3ff098f6b995ebba, 3, 8652}, // 1.037345
			{0x3ff192e31fde0043, 1, 8302}, // 1.098361
			{0x3ff19419f9ecfb05, 0, 8408}, // 1.098658
			{0x3ff2b9edc52d5bed, 0, 7944}, // 1.170393
			{0x3ff0c4cae41d7957, 3, 8555}, // 1.048045
			{0x3ff14908b46fc1b1, 2, 8431}, // 1.080331
			{0x3ff08dd9b1ab5b97, 5, 8618}, // 1.034631
		}},
	} {
		r, err := RunMultiFlow(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.BS.EBSNsSent != tc.ebsnsSent {
			t.Errorf("%s: %d EBSNs sent, recorded %d", tc.name, r.BS.EBSNsSent, tc.ebsnsSent)
		}
		for i, want := range tc.flows {
			got := r.PerFlow[i]
			if math.Float64bits(got.ThroughputKbps) != want.tputBits ||
				got.Timeouts != want.timeouts || got.EBSNResets != want.ebsnResets {
				t.Errorf("%s flow %d: %#x (%.6f kbps), %d timeouts, %d EBSN resets; recorded %#x, %d, %d",
					tc.name, i, math.Float64bits(got.ThroughputKbps), got.ThroughputKbps,
					got.Timeouts, got.EBSNResets, want.tputBits, want.timeouts, want.ebsnResets)
			}
		}
	}
}

// TestMultiFlowSinksAdvertiseSACK: every flow's sink advertises SACK blocks
// when the sender keeps a scoreboard, so the SACK variant through a shared
// base station is not NewReno under another name (the hand-wired copy never
// enabled the sinks' blocks, and the two read identical to the last digit).
func TestMultiFlowSinksAdvertiseSACK(t *testing.T) {
	base := LAN(bs.Basic, 800*time.Millisecond)
	base.TransferSize = 512 * units.KB
	run := func(v tcp.Variant) *MultiFlowResult {
		cfg := MultiFlowConfig{Base: base, Flows: 3}
		cfg.Base.Variant = v
		r, err := RunMultiFlow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%v: flows did not complete", v)
		}
		return r
	}
	newReno, sack := run(tcp.NewReno), run(tcp.SACKVariant)
	if math.Float64bits(newReno.AggregateKbps) == math.Float64bits(sack.AggregateKbps) {
		t.Errorf("SACK and NewReno both read %.3f kbps: the sinks sent no SACK blocks", sack.AggregateKbps)
	}

	// The blocks reach the sources: retransmission passes skip what the
	// receiver already holds.
	cfg := base
	cfg.Variant = tcp.SACKVariant
	cfg.Horizon = DefaultHorizon
	tp, err := newTopology(cfg, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.run(context.Background(), cfg, tp.allDone); err != nil {
		t.Fatal(err)
	}
	var skipped uint64
	for _, snd := range tp.senders {
		skipped += snd.Stats().SACKSkippedSegments
	}
	if skipped == 0 {
		t.Error("no sender skipped a SACKed segment")
	}
	if stats, err := tp.release(); err != nil || stats.LiveAtEnd != 0 {
		t.Errorf("teardown: %+v, %v", stats, err)
	}
}

// TestMultiFlowHonoursOrRefusesEveryBaseField covers the Base fields the
// hand-wired RunMultiFlow ignored without a word: each now either changes
// the outcome or is refused in an error naming it.
func TestMultiFlowHonoursOrRefusesEveryBaseField(t *testing.T) {
	plain := multiFlowBase(bs.EBSN)
	plain.Base.Channel.MeanBad = 4 * time.Second
	ref, err := RunMultiFlow(plain)
	if err != nil {
		t.Fatal(err)
	}
	uplink := plain.Base.Channel
	uplink.MeanBad = time.Second
	for _, tc := range []struct {
		field  string
		set    func(*Config)
		refuse bool
	}{
		{"SACK", func(c *Config) { c.SACK = true }, false},
		{"DelayedAcks", func(c *Config) { c.DelayedAcks = true }, false},
		{"ECN", func(c *Config) { c.ECN = true }, false},
		{"CrossTraffic", func(c *Config) { c.CrossTraffic = CrossTraffic{Rate: 30 * units.Kbps} }, false},
		{"UplinkChannel", func(c *Config) { c.UplinkChannel = &uplink }, false},
		{"Chaos", func(c *Config) { c.Chaos = chaosPlan() }, false},
		{"Oracle", func(c *Config) { c.Oracle = true }, true},
		{"CollectTrace", func(c *Config) { c.CollectTrace = true }, true},
		{"Checks", func(c *Config) { c.Checks = true }, true},
	} {
		cfg := plain
		tc.set(&cfg.Base)
		r, err := RunMultiFlow(cfg)
		switch {
		case tc.refuse:
			if err == nil || !strings.Contains(err.Error(), "Base."+tc.field) {
				t.Errorf("%s with 3 flows: want an error naming the field, got %v", tc.field, err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.field, err)
		case reflect.DeepEqual(r, ref):
			t.Errorf("%s changed nothing: %+v", tc.field, r)
		}
	}

	// A halted run is an error, not a result shaped from wherever it
	// stopped: the event budget, and the watchdog over a dead forward link
	// (armed by the fault plan, as in Run).
	cfg := plain
	cfg.Base.Budget = sim.Budget{MaxEvents: 1000}
	var budget *sim.BudgetError
	if r, err := RunMultiFlow(cfg); !errors.As(err, &budget) {
		t.Errorf("1000-event budget: result %+v, error %v", r, err)
	}
	cfg = plain
	cfg.Base.Chaos = &chaos.Config{Blackouts: []chaos.Blackout{{Link: chaos.WiredFwd, At: 0, Length: 2 * time.Hour}}}
	var stall *sim.StallError
	if r, err := RunMultiFlow(cfg); !errors.As(err, &stall) {
		t.Errorf("dead forward link: result %+v, error %v", r, err)
	} else if n := strings.Count(stall.Snapshot, "sender:"); n != 3 {
		t.Errorf("watchdog snapshot lists %d senders, want 3:\n%s", n, stall.Snapshot)
	}

	// With one flow the oracle's and the invariants' single connection is
	// the whole run, and both are armed as in Run.
	one := plain
	one.Flows = 1
	one.Base.Oracle, one.Base.Checks = true, true
	if _, err := RunMultiFlow(one); err != nil {
		t.Errorf("one flow under oracle and checks: %v", err)
	}
}
