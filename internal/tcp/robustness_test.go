package tcp

import (
	"slices"
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

func TestAckBeyondSndMaxIgnored(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 500 * units.KB // still in flight when the forgery arrives
	l := newLoop(t, cfg, 20*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	una := l.snd.SndUna()
	// A forged ack far beyond anything sent must be dropped.
	l.snd.Receive(&packet.Packet{Kind: packet.Ack, AckNo: 1 << 40})
	if l.snd.SndUna() != una {
		t.Error("forged ack advanced snd_una")
	}
	if l.snd.Done() {
		t.Error("forged ack completed the transfer")
	}
	// The connection still finishes normally.
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Error("transfer did not complete after forged ack")
	}
}

func TestOldAckIgnored(t *testing.T) {
	l := newLoop(t, wanConfig(), 20*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	una := l.snd.SndUna()
	if una == 0 {
		t.Fatal("no progress")
	}
	cwnd := l.snd.Cwnd()
	// A stale ack below snd_una neither grows the window nor counts as a
	// dupack.
	l.snd.Receive(&packet.Packet{Kind: packet.Ack, AckNo: una - 536})
	if l.snd.Cwnd() != cwnd {
		t.Error("old ack changed cwnd")
	}
	if l.snd.Stats().DupAcksReceived != 0 {
		t.Error("old ack counted as duplicate")
	}
}

func TestCongestionAvoidanceGrowth(t *testing.T) {
	// The pipes have no serialization delay, so a window leaves in
	// one burst. Losing every first transmission of the first burst past
	// 300 ms (a whole flight) times out once: ssthresh halves, and slow
	// start climbs back to it without a duplicate ACK. From the first
	// ACK at cwnd >= ssthresh each new ACK adds MSS²/cwnd: a full window
	// of ACKs grows cwnd by about one MSS, where slow start would add
	// one MSS per ACK.
	const mss = 536
	cfg := wanConfig()
	cfg.Total = 200 * units.KB
	cfg.Window = 16 * units.KB
	l := newLoop(t, cfg, 30*time.Millisecond)
	lostAt := time.Duration(-1)
	l.dropData = func(p *packet.Packet) bool {
		if lostAt < 0 && l.s.Now() >= 300*time.Millisecond {
			lostAt = l.s.Now()
		}
		return !p.Retransmit && l.s.Now() == lostAt
	}
	src := trace.NewSource(mss, l.s)
	tr := src.Store()
	l.snd.SetStateHook(src.OnState)
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() || l.snd.Stats().Timeouts != 1 || l.snd.Stats().FastRetransmits != 0 {
		t.Fatalf("want one timeout, no fast retransmit and a finished transfer: done=%v stats=%+v", l.snd.Done(), l.snd.Stats())
	}
	samples := tr.Cwnd()
	start := slices.IndexFunc(samples, func(s trace.CwndPoint) bool { return s.Ssthresh < cfg.Window })
	if start < 0 {
		t.Fatal("the loss never lowered ssthresh")
	}
	ca := slices.IndexFunc(samples[start:], func(s trace.CwndPoint) bool { return s.Cwnd >= s.Ssthresh })
	if ca < 0 {
		t.Fatal("slow start never reached ssthresh again")
	}
	from := samples[start+ca]
	acks := int(from.Cwnd+mss-1) / mss // one full window of ACKs
	if start+ca+acks >= len(samples) {
		t.Fatalf("only %d ACKs after cwnd reached ssthresh, want %d", len(samples)-start-ca-1, acks)
	}
	window := samples[start+ca+1 : start+ca+acks+1]
	for _, s := range window {
		if s.Ssthresh != from.Ssthresh || s.Cwnd < from.Cwnd {
			t.Fatalf("window fell during the measured window of ACKs: %+v after %+v", s, from)
		}
	}
	growth := float64(window[len(window)-1].Cwnd - from.Cwnd)
	if growth < 0.75*mss || growth > 1.25*mss {
		t.Errorf("cwnd %d -> %d over %d ACKs at ssthresh %d: growth %.0f bytes, want one MSS (%d) within 25%%",
			from.Cwnd, window[len(window)-1].Cwnd, acks, from.Ssthresh, growth, mss)
	}
}

func TestZeroAckAtStartIsNotDuplicate(t *testing.T) {
	l := newLoop(t, wanConfig(), 20*time.Millisecond)
	l.snd.Start()
	// An ack of 0 while data is outstanding is a dupack by definition
	// (ackNo == sndUna, outstanding data) — it must count and not crash.
	l.snd.Receive(&packet.Packet{Kind: packet.Ack, AckNo: 0})
	if l.snd.Stats().DupAcksReceived != 1 {
		t.Errorf("DupAcksReceived = %d", l.snd.Stats().DupAcksReceived)
	}
}

func TestReceiveIgnoresIrrelevantKinds(t *testing.T) {
	l := newLoop(t, wanConfig(), 20*time.Millisecond)
	l.snd.Start()
	before := l.snd.Stats()
	l.snd.Receive(&packet.Packet{Kind: packet.Data, Seq: 0, Payload: 536})
	l.snd.Receive(&packet.Packet{Kind: packet.Fragment})
	l.snd.Receive(&packet.Packet{Kind: packet.LinkAck})
	if l.snd.Stats() != before {
		t.Error("irrelevant packet kinds changed sender state")
	}
}

func TestSenderAccessors(t *testing.T) {
	l := newLoop(t, wanConfig(), 20*time.Millisecond)
	if l.snd.SndUna() != 0 || l.snd.SndNxt() != 0 {
		t.Error("fresh sender sequence state not zero")
	}
	if l.snd.Cwnd() != 536 {
		t.Errorf("initial cwnd = %d, want one MSS", l.snd.Cwnd())
	}
	if units.ByteSize(l.snd.st.Ssthresh) != 4*units.KB {
		t.Errorf("initial ssthresh = %d, want the window", units.ByteSize(l.snd.st.Ssthresh))
	}
}
