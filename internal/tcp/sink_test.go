package tcp

import (
	"testing"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

type sinkHarness struct {
	s    *sim.Simulator
	sink *Sink
	acks []*packet.Packet
}

func newSinkHarness(t *testing.T, window units.ByteSize) *sinkHarness {
	t.Helper()
	h := &sinkHarness{s: sim.New()}
	sink, err := NewSink(h.s, window, &packet.IDGen{}, func(p *packet.Packet) {
		h.acks = append(h.acks, p)
	})
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	h.sink = sink
	return h
}

func data(seq int64, payload units.ByteSize) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Seq: seq, Payload: payload}
}

func TestSinkInOrderDelivery(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(0, 536))
	h.sink.Receive(data(536, 536))
	if got := h.sink.Delivered(); got != 1072 {
		t.Errorf("Delivered = %d, want 1072", got)
	}
	if got := h.sink.RcvNxt(); got != 1072 {
		t.Errorf("RcvNxt = %d, want 1072", got)
	}
	if len(h.acks) != 2 {
		t.Fatalf("acks = %d, want 2", len(h.acks))
	}
	if h.acks[0].AckNo != 536 || h.acks[1].AckNo != 1072 {
		t.Errorf("ack numbers = %d, %d", h.acks[0].AckNo, h.acks[1].AckNo)
	}
	st := h.sink.Stats()
	if st.DupAcksSent != 0 || st.DuplicateSegments != 0 {
		t.Errorf("unexpected dup counters: %+v", st)
	}
}

func TestSinkOutOfOrderBuffersAndDupAcks(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(0, 536))
	// Segment 1 lost; segments 2 and 3 arrive out of order.
	h.sink.Receive(data(1072, 536))
	h.sink.Receive(data(1608, 536))
	if got := h.sink.Delivered(); got != 536 {
		t.Errorf("Delivered = %d, want 536", got)
	}
	// Both OOO arrivals generate duplicate ACKs for 536.
	if len(h.acks) != 3 {
		t.Fatalf("acks = %d", len(h.acks))
	}
	if h.acks[1].AckNo != 536 || h.acks[2].AckNo != 536 {
		t.Errorf("dupack numbers = %d, %d, want 536", h.acks[1].AckNo, h.acks[2].AckNo)
	}
	if got := h.sink.Stats().DupAcksSent; got != 2 {
		t.Errorf("DupAcksSent = %d, want 2", got)
	}
	// The missing segment arrives: everything drains at once.
	h.sink.Receive(data(536, 536))
	if got := h.sink.Delivered(); got != 4*536 {
		t.Errorf("Delivered = %d, want %d", got, 4*536)
	}
	if last := h.acks[len(h.acks)-1]; last.AckNo != 4*536 {
		t.Errorf("cumulative ack = %d, want %d", last.AckNo, 4*536)
	}
}

func TestSinkDuplicateSegmentCounted(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(0, 536))
	h.sink.Receive(data(0, 536)) // full duplicate
	if got := h.sink.Delivered(); got != 536 {
		t.Errorf("Delivered = %d, want 536 (duplicate must not double-count)", got)
	}
	if got := h.sink.Stats().DuplicateSegments; got != 1 {
		t.Errorf("DuplicateSegments = %d, want 1", got)
	}
	// Duplicate still generates a (duplicate) ACK so the sender can make
	// progress.
	if len(h.acks) != 2 {
		t.Errorf("acks = %d, want 2", len(h.acks))
	}
}

func TestSinkBufferedDuplicateCounted(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(536, 536)) // OOO, buffered
	h.sink.Receive(data(536, 536)) // same again
	if got := h.sink.Stats().BufferedSegments; got != 1 {
		t.Errorf("BufferedSegments = %d, want 1", got)
	}
	if got := h.sink.Stats().DuplicateSegments; got != 1 {
		t.Errorf("DuplicateSegments = %d, want 1", got)
	}
}

func TestSinkDiscardsBeyondWindow(t *testing.T) {
	h := newSinkHarness(t, 2*units.KB)
	// Segment far beyond the advertised window must not be buffered.
	h.sink.Receive(data(10*units.KB.Bits(), 536))
	if got := h.sink.Stats().BufferedSegments; got != 0 {
		t.Errorf("BufferedSegments = %d, want 0", got)
	}
	// Still acked (dupack for 0).
	if len(h.acks) != 1 || h.acks[0].AckNo != 0 {
		t.Error("window-exceeding segment not dupacked")
	}
}

func TestSinkIgnoresNonData(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(&packet.Packet{Kind: packet.EBSN})
	h.sink.Receive(&packet.Packet{Kind: packet.Ack, AckNo: 99})
	if len(h.acks) != 0 {
		t.Error("non-data packets generated ACKs")
	}
	if h.sink.Stats().SegmentsReceived != 0 {
		t.Error("non-data counted as segments")
	}
}
