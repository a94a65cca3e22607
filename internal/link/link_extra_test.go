package link

import (
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

func TestTxDoneHookFiresAtSerializationEnd(t *testing.T) {
	s := sim.New()
	var txDoneAt time.Duration
	l, err := New(s, Config{Rate: 8 * units.Kbps, Delay: 500 * time.Millisecond}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	l.SetTxDoneHook(func(*packet.Packet) { txDoneAt = s.Now() })
	l.Send(mkData(1, 984)) // 1024 bytes -> 1.024s serialization
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := 1024 * time.Millisecond
	if txDoneAt != want {
		t.Errorf("tx-done at %v, want %v (before propagation)", txDoneAt, want)
	}
}

func TestTxDoneHookFiresEvenWhenCorrupted(t *testing.T) {
	s := sim.New()
	ch := scriptAlwaysBad{}
	fired := 0
	delivered := 0
	l, err := New(s, wirelessWAN(0, ch), sim.NewRNG(1), func(*packet.Packet) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	l.SetTxDoneHook(func(*packet.Packet) { fired++ })
	l.Send(&packet.Packet{Kind: packet.Fragment, Payload: 128})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("tx-done fired %d times, want 1", fired)
	}
	if delivered != 0 {
		t.Error("corrupted packet delivered")
	}
}

// scriptAlwaysBad corrupts everything.
type scriptAlwaysBad struct{}

func (scriptAlwaysBad) StateAt(time.Duration) errmodel.State { return errmodel.Bad }

func (scriptAlwaysBad) ExpectedBitErrors(time.Duration, time.Duration, int64) float64 {
	return 1e9
}

func TestDropQueued(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Rate: units.Kbps}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	// First send occupies the transmitter; the next three queue.
	for i := uint64(1); i <= 4; i++ {
		l.Send(mkData(i, 85))
	}
	if got := l.DropQueued(); got != 3 {
		t.Fatalf("DropQueued = %d, want 3", got)
	}
	if l.QueueLen() != 0 {
		t.Error("queue not empty after DropQueued")
	}
	// The in-flight packet still delivers.
	deliveredBefore := l.Stats().Delivered
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Delivered != deliveredBefore+1 {
		t.Error("in-flight packet lost by DropQueued")
	}
}

// TestECNDoesNotMarkControlPackets: RED marks a Data packet admitted to
// a non-empty queue and never an ACK, whatever the queue holds.
func TestECNDoesNotMarkControlPackets(t *testing.T) {
	s := sim.New()
	// Weight 1 makes the average the instantaneous length, so every
	// arrival at a non-empty queue is past MaxThreshold.
	red := &queue.REDConfig{MinThreshold: 0, MaxThreshold: 0.5, MaxP: 1, Weight: 1}
	l, err := New(s, Config{Rate: units.Kbps, RED: red}, sim.NewRNG(1), func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	var acks []*packet.Packet
	for i := 0; i < 5; i++ {
		acks = append(acks, &packet.Packet{Kind: packet.Ack})
		l.Send(acks[i])
	}
	data := mkData(1, 10)
	l.Send(data)
	for i, p := range acks {
		if p.CongestionMarked {
			t.Errorf("ack %d marked", i+1)
		}
	}
	if !data.CongestionMarked {
		t.Error("data packet behind four queued acks not marked")
	}
	if got := l.Stats().ECNMarked; got != 1 {
		t.Errorf("ECNMarked = %d, want 1", got)
	}
}

func TestREDLinkRequiresRNG(t *testing.T) {
	s := sim.New()
	red := &queue.REDConfig{MinThreshold: 1, MaxThreshold: 5, MaxP: 0.1, Weight: 0.2}
	if _, err := New(s, Config{Rate: units.Kbps, RED: red}, nil, func(*packet.Packet) {}); err == nil {
		t.Error("RED without RNG accepted")
	}
	bad := &queue.REDConfig{}
	if _, err := New(s, Config{Rate: units.Kbps, RED: bad}, sim.NewRNG(1), func(*packet.Packet) {}); err == nil {
		t.Error("invalid RED config accepted")
	}
}

func TestREDLinkMarksUnderSustainedQueue(t *testing.T) {
	s := sim.New()
	red := &queue.REDConfig{MinThreshold: 2, MaxThreshold: 8, MaxP: 0.5, Weight: 0.5}
	l, err := New(s, Config{Rate: units.Kbps, RED: red}, sim.NewRNG(3), func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		l.Send(mkData(i, 10))
	}
	if got := l.Stats().ECNMarked; got == 0 {
		t.Error("RED never marked despite a persistent 30+-packet queue")
	}
}
