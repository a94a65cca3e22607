package bs

import (
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
)

// scriptChannel is a controllable error process: transmissions starting
// while bad() is true are corrupted with certainty; others never are.
type scriptChannel struct {
	bad func(t time.Duration) bool
}

func (c scriptChannel) StateAt(t time.Duration) errmodel.State {
	if c.bad != nil && c.bad(t) {
		return errmodel.Bad
	}
	return errmodel.Good
}

func (c scriptChannel) ExpectedBitErrors(start, _ time.Duration, _ int64) float64 {
	if c.bad != nil && c.bad(start) {
		return 1e9
	}
	return 0
}

// bench wires a base station between a captured wired side and a mobile
// host stub over real wireless links.
type bench struct {
	t       *testing.T
	s       *sim.Simulator
	ids     *packet.IDGen
	bs      *BaseStation
	toFH    []*packet.Packet // packets emitted toward the fixed host
	mhGot   []*packet.Packet // units delivered to the mobile host
	up      *link.Link
	down    *link.Link
	ackBack bool // mobile host sends link acks
}

// wirelessWAN is the paper's wide-area wireless link: 19.2 kbps raw with
// 1.5x framing/FEC overhead.
func wirelessWAN(delay time.Duration, ch errmodel.Channel) link.Config {
	return link.Config{Name: "wireless", Rate: link.BitRateWirelessWAN, Delay: delay, Overhead: 1.5, Channel: ch}
}

func newBench(t *testing.T, cfg Config, ch errmodel.Channel) *bench {
	t.Helper()
	b := &bench{t: t, s: sim.New(), ids: &packet.IDGen{}, ackBack: cfg.Scheme.UsesLinkAcks()}

	up, err := link.New(b.s, wirelessWAN(5*time.Millisecond, nil), sim.NewRNG(2), func(p *packet.Packet) {
		b.bs.FromWireless(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	b.up = up

	down, err := link.New(b.s, wirelessWAN(5*time.Millisecond, ch), sim.NewRNG(3), func(p *packet.Packet) {
		b.mhGot = append(b.mhGot, p)
		if b.ackBack {
			b.up.Send(&packet.Packet{
				ID:    b.ids.Next(),
				Kind:  packet.LinkAck,
				AckNo: int64(p.ID),
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.down = down

	station, err := New(b.s, cfg, b.ids, sim.NewRNG(4), down, func(p *packet.Packet) {
		b.toFH = append(b.toFH, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	b.bs = station
	return b
}

// dataPacket builds a 576-byte (536 payload) data segment.
func (b *bench) dataPacket(seq int64) *packet.Packet {
	return &packet.Packet{ID: b.ids.Next(), Kind: packet.Data, Seq: seq, Payload: 536}
}

func TestSchemeNamesRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme should render")
	}
}

func TestUsesLinkAcks(t *testing.T) {
	want := map[Scheme]bool{
		Basic: false, LocalRecovery: true, EBSN: true, SourceQuench: true, Snoop: false,
	}
	for s, w := range want {
		if got := s.UsesLinkAcks(); got != w {
			t.Errorf("%v.UsesLinkAcks() = %v, want %v", s, got, w)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	s := sim.New()
	ids := &packet.IDGen{}
	down, err := link.New(s, wirelessWAN(0, nil), sim.NewRNG(1), func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(s, Config{}, ids, nil, nil, func(*packet.Packet) {}); err == nil {
		t.Error("nil downlink accepted")
	}
	if _, err := New(s, Config{}, ids, nil, down, nil); err == nil {
		t.Error("nil wired output accepted")
	}
	if _, err := New(s, Config{Scheme: EBSN, MTU: 128}, ids, nil, down, func(*packet.Packet) {}); err == nil {
		t.Error("recovery scheme without RNG accepted")
	}
	if _, err := New(s, Config{MTU: -1}, ids, nil, down, func(*packet.Packet) {}); err == nil {
		t.Error("negative MTU accepted")
	}
}

func TestBasicFragmentsAndForwards(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic, MTU: 128}, nil)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	// 576 bytes -> 5 fragments (4x128 + 64).
	if len(b.mhGot) != 5 {
		t.Fatalf("MH received %d units, want 5 fragments", len(b.mhGot))
	}
	for _, p := range b.mhGot {
		if p.Kind != packet.Fragment {
			t.Errorf("unit kind = %v", p.Kind)
		}
	}
	if b.bs.Stats().DataIn != 1 {
		t.Errorf("DataIn = %d", b.bs.Stats().DataIn)
	}
}

func TestBasicNoFragmentationWhenMTUZero(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic}, nil)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 1 || b.mhGot[0].Kind != packet.Data {
		t.Fatalf("MH received %v, want the whole data packet", b.mhGot)
	}
}

func TestAcksForwardedToFixedHost(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic, MTU: 128}, nil)
	ack := &packet.Packet{ID: b.ids.Next(), Kind: packet.Ack, AckNo: 576}
	b.bs.FromWireless(ack)
	if len(b.toFH) != 1 || b.toFH[0] != ack {
		t.Fatal("TCP ack not forwarded to fixed host")
	}
	if b.bs.Stats().AcksForwarded != 1 {
		t.Error("AcksForwarded not counted")
	}
}

func TestNonDataFromWiredIgnored(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic, MTU: 128}, nil)
	b.bs.FromWired(&packet.Packet{Kind: packet.EBSN})
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 0 || b.bs.Stats().DataIn != 0 {
		t.Error("non-data packet was forwarded")
	}
}

func TestARQDeliversOnCleanChannel(t *testing.T) {
	b := newBench(t, Config{Scheme: LocalRecovery, MTU: 128}, nil)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 5 {
		t.Fatalf("MH received %d units, want 5", len(b.mhGot))
	}
	st := b.bs.Stats()
	if st.ARQAttempts != 5 {
		t.Errorf("ARQAttempts = %d, want 5 (no retries on clean channel)", st.ARQAttempts)
	}
	if st.ARQTimeouts != 0 || st.ARQDiscards != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
	if st.LinkAcks != 5 {
		t.Errorf("LinkAcks = %d, want 5", st.LinkAcks)
	}
	if b.bs.Backlog() != 0 {
		t.Errorf("Backlog = %d after completion", b.bs.Backlog())
	}
	if b.s.Pending() != 0 {
		t.Errorf("%d timers leaked", b.s.Pending())
	}
}

func TestARQRecoversFromBurstLoss(t *testing.T) {
	// Bad from 0 to 2s, then clean: the first attempts fail, the ARQ
	// retries until the channel heals, and everything is delivered.
	ch := scriptChannel{bad: func(ts time.Duration) bool { return ts < 2*time.Second }}
	b := newBench(t, Config{Scheme: LocalRecovery, MTU: 128}, ch)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Reassembly-unique units: dedup by ID since retransmissions deliver
	// the same unit object at most once... each unit may be delivered
	// multiple times if a link ack was lost; here the uplink is clean so
	// exactly once.
	if len(b.mhGot) != 5 {
		t.Fatalf("MH received %d units, want 5", len(b.mhGot))
	}
	st := b.bs.Stats()
	if st.ARQTimeouts == 0 {
		t.Error("no ARQ timeouts during a 2s burst")
	}
	if st.ARQDiscards != 0 {
		t.Errorf("ARQDiscards = %d, want 0 (burst shorter than RTmax budget)", st.ARQDiscards)
	}
	if st.ARQAttempts <= 5 {
		t.Errorf("ARQAttempts = %d, want retries beyond 5", st.ARQAttempts)
	}
	if b.bs.Backlog() != 0 {
		t.Errorf("Backlog = %d", b.bs.Backlog())
	}
}

func TestARQDiscardsAfterRTmax(t *testing.T) {
	ch := scriptChannel{bad: func(time.Duration) bool { return true }} // permanent fade
	cfg := Config{Scheme: LocalRecovery, MTU: 128, ARQ: ARQConfig{RTmax: 3, Window: 1}}
	b := newBench(t, cfg, ch)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 0 {
		t.Fatalf("units delivered through a permanent fade: %d", len(b.mhGot))
	}
	st := b.bs.Stats()
	if st.ARQDiscards != 1 {
		t.Errorf("ARQDiscards = %d, want 1 (whole-packet discard)", st.ARQDiscards)
	}
	// Each unit is allowed 1 + RTmax = 4 transmissions. During a unit's
	// backoff its window slot frees, so a second fragment also cycles;
	// the discard withdraws everything once the first unit exhausts its
	// budget. Attempts are therefore bounded by 2 * (1 + RTmax) here.
	if st.ARQAttempts < 4 || st.ARQAttempts > 8 {
		t.Errorf("ARQAttempts = %d, want in [4, 8]", st.ARQAttempts)
	}
	if b.bs.Backlog() != 0 {
		t.Errorf("Backlog = %d after discard", b.bs.Backlog())
	}
}

func TestARQWindowRespected(t *testing.T) {
	cfg := Config{Scheme: LocalRecovery, MTU: 128, ARQ: ARQConfig{Window: 2}}
	b := newBench(t, cfg, nil)
	b.bs.FromWired(b.dataPacket(0))
	// Immediately after admit, at most Window units are in flight; the
	// rest are pending.
	if got := b.bs.arq.inFlight(); got > 2 {
		t.Errorf("in flight = %d, want <= 2", got)
	}
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 5 {
		t.Errorf("delivered %d, want all 5 despite window", len(b.mhGot))
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := Config{Scheme: LocalRecovery, MTU: 128, QueueLimit: 2}
	// Permanent fade so nothing drains.
	b := newBench(t, cfg, scriptChannel{bad: func(time.Duration) bool { return true }})
	for i := 0; i < 4; i++ {
		b.bs.FromWired(b.dataPacket(int64(i * 576)))
	}
	st := b.bs.Stats()
	if st.DataIn != 2 {
		t.Errorf("DataIn = %d, want 2", st.DataIn)
	}
	if st.DataDropped != 2 {
		t.Errorf("DataDropped = %d, want 2", st.DataDropped)
	}
	if b.bs.Backlog() != 2 {
		t.Errorf("Backlog = %d, want 2", b.bs.Backlog())
	}
}

func TestEBSNSentPerFailedAttempt(t *testing.T) {
	ch := scriptChannel{bad: func(ts time.Duration) bool { return ts < 1500*time.Millisecond }}
	b := newBench(t, Config{Scheme: EBSN, MTU: 128}, ch)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := b.bs.Stats()
	if st.ARQTimeouts == 0 {
		t.Fatal("no failed attempts to notify")
	}
	if st.EBSNsSent != st.ARQTimeouts {
		t.Errorf("EBSNsSent = %d, ARQTimeouts = %d; want one EBSN per failure", st.EBSNsSent, st.ARQTimeouts)
	}
	// EBSNs reached the wired side.
	ebsns := 0
	for _, p := range b.toFH {
		if p.Kind == packet.EBSN {
			ebsns++
		}
	}
	if uint64(ebsns) != st.EBSNsSent {
		t.Errorf("%d EBSNs on the wire, stats say %d", ebsns, st.EBSNsSent)
	}
}

func TestQuenchSentPerFailedAttempt(t *testing.T) {
	ch := scriptChannel{bad: func(ts time.Duration) bool { return ts < time.Second }}
	b := newBench(t, Config{Scheme: SourceQuench, MTU: 128}, ch)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := b.bs.Stats()
	if st.QuenchesSent == 0 || st.QuenchesSent != st.ARQTimeouts {
		t.Errorf("QuenchesSent = %d, ARQTimeouts = %d", st.QuenchesSent, st.ARQTimeouts)
	}
	if st.EBSNsSent != 0 {
		t.Error("quench scheme sent EBSNs")
	}
}

func TestStaleLinkAckIgnored(t *testing.T) {
	b := newBench(t, Config{Scheme: LocalRecovery, MTU: 128}, nil)
	b.bs.FromWireless(&packet.Packet{Kind: packet.LinkAck, AckNo: 9999})
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.bs.Stats().LinkAcks != 1 {
		t.Error("stale link ack not counted")
	}
}

func TestDuplicateDeliveryWhenLinkAckLost(t *testing.T) {
	// Uplink corrupts everything for the first 400ms: the fragment
	// arrives, its link ack dies, the ARQ retransmits, and the mobile
	// host sees the unit twice. (Reassembly dedup is exercised in the ip
	// package.)
	b := newBench(t, Config{Scheme: LocalRecovery, MTU: 600}, nil)
	// Rebuild the uplink with a lossy channel: simplest is to drop the
	// first link ack by hand.
	dropped := false
	inner := b.up
	_ = inner
	b.ackBack = false
	// Re-wire MH delivery manually.
	// Note: newBench's downlink deliver closure already appended to
	// mhGot; we emulate the ack path with one dropped ack.
	b.bs.FromWired(&packet.Packet{ID: b.ids.Next(), Kind: packet.Data, Seq: 0, Payload: 100})
	if err := b.s.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 1 {
		t.Fatalf("first delivery missing")
	}
	// Don't ack; let the ARQ time out and retransmit, then ack.
	if err := b.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) < 2 {
		t.Fatalf("no retransmission after lost link ack: %d deliveries", len(b.mhGot))
	}
	if !dropped {
		dropped = true // silence unused warning pattern; ack the retransmission
		b.bs.FromWireless(&packet.Packet{Kind: packet.LinkAck, AckNo: int64(b.mhGot[1].ID)})
	}
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.bs.Backlog() != 0 {
		t.Errorf("Backlog = %d after late ack", b.bs.Backlog())
	}
}

func TestSnoopLocalRetransmitOnDupAck(t *testing.T) {
	b := newBench(t, Config{Scheme: Snoop, MTU: 128}, nil)
	p0 := b.dataPacket(0)
	p1 := b.dataPacket(536)
	b.bs.FromWired(p0)
	b.bs.FromWired(p1)
	// Bounded run: the snoop persistence timer re-arms while segments
	// stay cached, so RunAll would never drain.
	if err := b.s.Run(790 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := len(b.mhGot)

	// New ack for p0 frees it from the cache and is forwarded.
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 536})
	if len(b.toFH) != 1 {
		t.Fatal("new ack not forwarded")
	}
	// Dupacks for 536 (p1 lost in this scenario): first triggers a local
	// retransmission and is suppressed.
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 536})
	if len(b.toFH) != 1 {
		t.Error("dupack not suppressed")
	}
	st := b.bs.Stats()
	if st.SnoopLocalRetx != 1 {
		t.Errorf("SnoopLocalRetx = %d, want 1", st.SnoopLocalRetx)
	}
	if st.SnoopSuppressedDupAcks != 1 {
		t.Errorf("SnoopSuppressedDupAcks = %d, want 1", st.SnoopSuppressedDupAcks)
	}
	// Second dupack: already locally retransmitted, still suppressed,
	// no second local retransmission.
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 536})
	if got := b.bs.Stats().SnoopLocalRetx; got != 1 {
		t.Errorf("SnoopLocalRetx after second dupack = %d, want 1", got)
	}
	if err := b.s.Run(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) <= before {
		t.Error("local retransmission never reached the mobile host")
	}
}

func TestSnoopDupAckForUncachedSegmentForwarded(t *testing.T) {
	b := newBench(t, Config{Scheme: Snoop, MTU: 128}, nil)
	// Dupack for a segment the snoop never saw: must go to the source.
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 0})
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 0})
	if len(b.toFH) != 2 {
		t.Errorf("forwarded %d acks, want 2 (nothing cached to repair)", len(b.toFH))
	}
}

func TestSnoopPersistenceTimer(t *testing.T) {
	cfg := Config{Scheme: Snoop, MTU: 128, Snoop: SnoopConfig{LocalTimeout: 500 * time.Millisecond}}
	b := newBench(t, cfg, nil)
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.Run(300 * time.Millisecond); err != nil { // initial tx done
		t.Fatal(err)
	}
	before := b.bs.Stats().SnoopLocalRetx
	if err := b.s.Run(1200 * time.Millisecond); err != nil { // one timeout fires
		t.Fatal(err)
	}
	if got := b.bs.Stats().SnoopLocalRetx; got <= before {
		t.Error("persistence timer never retransmitted")
	}
	// A covering ack stops the timer and empties the cache.
	b.bs.FromWireless(&packet.Packet{Kind: packet.Ack, AckNo: 536})
	if err := b.s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	retxAfterAck := b.bs.Stats().SnoopLocalRetx
	if err := b.s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if b.bs.Stats().SnoopLocalRetx != retxAfterAck {
		t.Error("snoop kept retransmitting after everything was acked")
	}
}

func TestBacklogBasicUsesLinkQueue(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic, MTU: 128}, nil)
	b.bs.FromWired(b.dataPacket(0))
	// Before the simulation runs, four of five fragments still queue at
	// the link (one is in the transmitter).
	if got := b.bs.Backlog(); got != 4 {
		t.Errorf("Backlog = %d, want 4 queued fragments", got)
	}
}
