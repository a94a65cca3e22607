package link

import (
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// fade corrupts every transmission.
type fade struct{}

func (fade) StateAt(time.Duration) errmodel.State { return errmodel.Bad }
func (fade) ExpectedBitErrors(_, _ time.Duration, bits int64) float64 {
	return float64(bits)
}

// TestLinkReleasesEveryPacketItDoesNotDeliver walks the link's terminal
// points with pooled packets: tail drop, corruption, DropQueued, a
// delivery the interceptor consumes, and the end-of-run ReleaseAll. A
// delivered packet's reference passes to the receiver instead.
func TestLinkReleasesEveryPacketItDoesNotDeliver(t *testing.T) {
	pool := &packet.Pool{}
	ids := packet.NewIDGen(pool)
	data := func() *packet.Packet {
		p := ids.New(packet.Data)
		p.Payload = 100
		return p
	}
	live := func() int { return pool.Stats().LiveAtEnd }

	s := sim.New()
	var got []*packet.Packet
	l, err := New(s, Config{Name: "t", Rate: units.Mbps, Delay: time.Millisecond, QueueLimit: 2, Channel: fade{}},
		sim.NewRNG(1), func(p *packet.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}

	// One on the wire, two queued, the fourth refused.
	for i := 0; i < 3; i++ {
		if !l.Send(data()) {
			t.Fatalf("send %d refused", i)
		}
	}
	if l.Send(data()) {
		t.Fatal("fourth packet admitted past the queue limit")
	}
	if live() != 3 || l.Stats().QueueDrops != 1 {
		t.Fatalf("after a tail drop: %d live, stats %+v", live(), l.Stats())
	}
	// DropQueued discards the two waiting.
	if n := l.DropQueued(); n != 2 || live() != 1 {
		t.Fatalf("DropQueued = %d, %d live", n, live())
	}
	// The transmission in progress is corrupted by the fade.
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if live() != 0 || len(got) != 0 || l.Stats().Corrupted != 1 {
		t.Fatalf("after corruption: %d live, %d delivered, stats %+v", live(), len(got), l.Stats())
	}

	// A clean link: the interceptor consumes one delivery, the receiver
	// takes over the other.
	clean, err := New(s, Config{Name: "c", Rate: units.Mbps, Delay: time.Millisecond}, nil,
		func(p *packet.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	consume := true
	clean.SetInterceptor(func(*packet.Packet) bool { consume = !consume; return consume })
	clean.Send(data())
	clean.Send(data())
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || live() != 1 || got[0].ID == 0 {
		t.Fatalf("after interception: %d delivered, %d live", len(got), live())
	}
	got[0].Release()

	// Teardown with a packet in every place the link can hold one.
	for i := 0; i < 3; i++ {
		clean.Send(data())
	}
	for len(clean.inflight) == 0 {
		if ok, err := s.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	}
	if clean.curP == nil || clean.QueueLen() != 1 || live() != 3 {
		t.Fatalf("setup: curP=%v queue=%d inflight=%d live=%d", clean.curP, clean.QueueLen(), len(clean.inflight), live())
	}
	clean.ReleaseAll()
	if live() != 0 || pool.Fault() != nil {
		t.Errorf("after ReleaseAll: %d live, fault %v", live(), pool.Fault())
	}
}
