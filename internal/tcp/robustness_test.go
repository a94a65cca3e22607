package tcp

import (
	"testing"
	"time"

	"wtcp/internal/packet"
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
	// Force congestion avoidance by setting a low ssthresh via an early
	// loss, then verify sub-linear (per-ack) growth: after one full
	// window of acks, cwnd grows by about one MSS.
	cfg := wanConfig()
	cfg.Total = 200 * units.KB
	cfg.Window = 16 * units.KB
	l := newLoop(t, cfg, 30*time.Millisecond)
	dropped := false
	l.dropData = func(p *packet.Packet) bool {
		if !dropped && p.Seq == 8*536 && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	l.snd.Start()
	if err := l.s.Run(4 * time.Second); err != nil { // past the recovery
		t.Fatal(err)
	}
	ss := units.ByteSize(l.snd.st.Ssthresh)
	if l.snd.Cwnd() < ss {
		// Wait until slow start has reached ssthresh again.
		if err := l.s.Run(8 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	start := l.snd.Cwnd()
	if start < ss {
		t.Skipf("cwnd %d below ssthresh %d; recovery slower than expected", start, ss)
	}
	// One RTT is ~60ms; run a few RTTs and verify growth is ~1 MSS/RTT,
	// not 1 MSS/ack.
	if err := l.s.Run(8*time.Second + 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	growth := l.snd.Cwnd() - start
	if growth <= 0 {
		t.Skip("no acks in window (transfer may have finished)")
	}
	// ~5 RTTs: linear growth is ~5 MSS; slow start would give ~2^5x.
	if growth > 10*536 {
		t.Errorf("growth %d bytes over ~5 RTTs looks exponential", growth)
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
