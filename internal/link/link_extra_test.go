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

func TestECNThresholdMarking(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Rate: units.Kbps, ECNThreshold: 2}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	var sent []*packet.Packet
	for i := uint64(1); i <= 5; i++ {
		p := mkData(i, 10)
		sent = append(sent, p)
		l.Send(p)
	}
	// Packet 1 transmits immediately (queue empty), 2 and 3 enqueue at
	// lengths 0 and 1; packets 4 and 5 see length >= 2 and get marked.
	for i, p := range sent {
		wantMark := i >= 3
		if p.CongestionMarked != wantMark {
			t.Errorf("packet %d marked=%v, want %v", i+1, p.CongestionMarked, wantMark)
		}
	}
	if got := l.Stats().ECNMarked; got != 2 {
		t.Errorf("ECNMarked = %d, want 2", got)
	}
}

func TestECNDoesNotMarkControlPackets(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Rate: units.Kbps, ECNThreshold: 1}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Send(&packet.Packet{Kind: packet.Ack})
	}
	if got := l.Stats().ECNMarked; got != 0 {
		t.Errorf("control packets marked: %d", got)
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
