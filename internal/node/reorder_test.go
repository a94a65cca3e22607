package node

import (
	"testing"
	"testing/quick"
	"time"

	"wtcp/internal/packet"
)

// seqUnit builds a sequenced whole-packet unit (LAN-style ARQ).
func seqUnit(id uint64, linkSeq int64, seq int64) *packet.Packet {
	return &packet.Packet{
		ID: id, Kind: packet.Data, Seq: seq, Payload: 536, LinkSeq: linkSeq,
	}
}

func TestReorderBufferRestoresOrder(t *testing.T) {
	h := newHarness(t, true)
	// Units arrive 2, 3, 1 (retransmission backoff reordered the air).
	h.m.Receive(seqUnit(12, 2, 536))
	h.m.Receive(seqUnit(13, 3, 1072))
	if got := h.sink.Delivered(); got != 0 {
		t.Fatalf("out-of-order units delivered early: %d", got)
	}
	h.m.Receive(seqUnit(11, 1, 0))
	if got := h.sink.Delivered(); got != 3*536 {
		t.Fatalf("delivered %d after gap filled, want %d", got, 3*536)
	}
	// All in order: exactly three TCP acks, and the last is cumulative.
	var acks []*packet.Packet
	for _, p := range h.uplink {
		if p.Kind == packet.Ack {
			acks = append(acks, p)
		}
	}
	if len(acks) != 3 || acks[2].AckNo != 3*536 {
		t.Errorf("acks = %v", acks)
	}
	if h.m.Stats().ReorderedUnits != 2 {
		t.Errorf("ReorderedUnits = %d, want 2", h.m.Stats().ReorderedUnits)
	}
}

func TestReorderDuplicateDetection(t *testing.T) {
	h := newHarness(t, true)
	u := seqUnit(5, 1, 0)
	h.m.Receive(u)
	h.m.Receive(u) // duplicate after delivery (lost link ack)
	if h.m.Stats().DuplicateUnits != 1 {
		t.Errorf("DuplicateUnits = %d, want 1", h.m.Stats().DuplicateUnits)
	}
	// Duplicate while still buffered.
	v := seqUnit(6, 3, 1072)
	h.m.Receive(v)
	h.m.Receive(v)
	if h.m.Stats().DuplicateUnits != 2 {
		t.Errorf("DuplicateUnits = %d, want 2", h.m.Stats().DuplicateUnits)
	}
	if h.sink.Delivered() != 536 {
		t.Errorf("Delivered = %d", h.sink.Delivered())
	}
}

func TestGapFlushAfterDiscard(t *testing.T) {
	h := newHarnessWithReorderTimeout(t, 500*time.Millisecond)
	// Unit 1 was discarded by the base station; 2 and 3 arrive.
	h.m.Receive(seqUnit(22, 2, 536))
	h.m.Receive(seqUnit(23, 3, 1072))
	if h.sink.Delivered() != 0 {
		t.Fatal("gap leaked early")
	}
	if err := h.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if h.m.Stats().GapFlushes != 1 {
		t.Errorf("GapFlushes = %d, want 1", h.m.Stats().GapFlushes)
	}
	// The buffered OOO segments reach the sink (which dupacks; TCP
	// recovers the hole end to end).
	if h.sink.Stats().BufferedSegments != 2 {
		t.Errorf("sink buffered = %d, want 2", h.sink.Stats().BufferedSegments)
	}
}

func TestGapFillCancelsFlush(t *testing.T) {
	h := newHarnessWithReorderTimeout(t, 500*time.Millisecond)
	h.m.Receive(seqUnit(32, 2, 536))
	h.m.Receive(seqUnit(31, 1, 0)) // gap fills promptly
	if err := h.s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.m.Stats().GapFlushes != 0 {
		t.Errorf("GapFlushes = %d after a filled gap", h.m.Stats().GapFlushes)
	}
	if h.s.Pending() != 0 {
		t.Errorf("%d timers leaked", h.s.Pending())
	}
}

func TestMultipleGapsFlushIteratively(t *testing.T) {
	h := newHarnessWithReorderTimeout(t, 300*time.Millisecond)
	// Holes at 1 and 3: units 2 and 4 arrive.
	h.m.Receive(seqUnit(42, 2, 536))
	h.m.Receive(seqUnit(44, 4, 3*536))
	if err := h.s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.m.Stats().GapFlushes != 2 {
		t.Errorf("GapFlushes = %d, want 2 (one per hole)", h.m.Stats().GapFlushes)
	}
	if h.sink.Stats().BufferedSegments != 2 {
		t.Errorf("sink buffered = %d", h.sink.Stats().BufferedSegments)
	}
}

// TestGapFlushResumesAtTheLowestBufferedUnit: whatever order the units
// above a dead gap arrived in, the flush resumes at the lowest of them and
// hands the run up in link order; a unit from below the new floor that
// shows up afterwards is a duplicate, not a delivery.
func TestGapFlushResumesAtTheLowestBufferedUnit(t *testing.T) {
	h := newHarnessWithReorderTimeout(t, 500*time.Millisecond)
	var handedUp []int64
	h.m.SetSequencedHook(func(p *packet.Packet) { handedUp = append(handedUp, p.LinkSeq) })
	// Units 1 and 2 were discarded; 5, 3, 7, 4 arrive in that order.
	h.m.Receive(seqUnit(55, 5, 4*536))
	h.m.Receive(seqUnit(53, 3, 2*536))
	h.m.Receive(seqUnit(57, 7, 6*536))
	h.m.Receive(seqUnit(54, 4, 3*536))
	if len(handedUp) != 0 {
		t.Fatalf("units %v handed up across the gap", handedUp)
	}
	if err := h.s.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(handedUp) != 3 || handedUp[0] != 3 || handedUp[1] != 4 || handedUp[2] != 5 {
		t.Fatalf("first flush handed up %v, want 3 4 5 (7 waits behind the hole at 6)", handedUp)
	}
	h.m.Receive(seqUnit(52, 2, 536)) // the discarded unit's straggler
	if st := h.m.Stats(); st.DuplicateUnits != 1 || st.GapFlushes != 1 || st.ReorderPeak != 4 {
		t.Errorf("stats = %+v, want the straggler counted a duplicate, one flush, four units held at the peak", st)
	}
	if err := h.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(handedUp) != 4 || handedUp[3] != 7 || h.m.Stats().GapFlushes != 2 {
		t.Errorf("after the second flush: handed up %v, %d flushes", handedUp, h.m.Stats().GapFlushes)
	}
}

// newHarnessWithReorderTimeout builds a link-acking mobile host with a
// custom gap timeout.
func newHarnessWithReorderTimeout(t *testing.T, timeout time.Duration) *harness {
	t.Helper()
	h := newHarness(t, true)
	m, err := NewMobile(h.s, MobileConfig{LinkAcks: true, ReorderTimeout: timeout},
		h.ids, h.sink, func(p *packet.Packet) { h.uplink = append(h.uplink, p) })
	if err != nil {
		t.Fatal(err)
	}
	h.m = m
	return h
}

// TestPropertyReorderAnyPermutation: whatever order sequenced units
// arrive in (with duplicates), the sink sees them in link order and
// exactly once.
func TestPropertyReorderAnyPermutation(t *testing.T) {
	f := func(order []uint8) bool {
		const n = 8
		h := newHarness(t, true)
		units := make([]*packet.Packet, n)
		for i := range units {
			units[i] = seqUnit(uint64(100+i), int64(i+1), int64(i)*536)
		}
		seen := map[int]bool{}
		for _, b := range order {
			idx := int(b) % n
			seen[idx] = true
			h.m.Receive(units[idx])
		}
		// Deliveries equal the longest contiguous prefix received.
		prefix := 0
		for seen[prefix] {
			prefix++
		}
		return int64(h.sink.Delivered()) == packetBytes(prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func packetBytes(n int) (total int64) { return int64(n) * 536 }
