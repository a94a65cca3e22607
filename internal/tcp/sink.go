package tcp

import (
	"errors"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// SinkStats accumulates receiver-side counters.
type SinkStats struct {
	// SegmentsReceived counts every Data segment that arrived.
	SegmentsReceived uint64
	// DuplicateSegments counts arrivals wholly at or below rcv_nxt or
	// already buffered — wasted wireless capacity.
	DuplicateSegments uint64
	// BufferedSegments counts out-of-order arrivals held for reordering.
	BufferedSegments uint64
	// AcksSent counts all ACKs, DupAcksSent the non-advancing ones.
	AcksSent    uint64
	DupAcksSent uint64
	// BufferedPeak is the most out-of-order segments held at once.
	BufferedPeak int
}

// Sink is the receiving TCP endpoint: it delivers payload in order,
// acknowledges every arriving segment immediately with a cumulative ACK
// (the ns TCPSink behaviour the paper's simulations used), and buffers
// out-of-order segments within the advertised window.
type Sink struct {
	sim *sim.Simulator
	ids *packet.IDGen
	out func(*packet.Packet)

	rcvNxt int64
	window units.ByteSize
	// buffered holds the out-of-order segments' payload lengths by seq: at
	// most a window's worth.
	buffered queue.Table[int64, units.ByteSize]

	delivered   units.ByteSize // cumulative in-order payload ("user data")
	lastArrival time.Duration

	// Delayed-ACK state (RFC 1122 §4.2.3.2): when enabled, an in-order
	// arrival is acknowledged either by the next arrival (ack every
	// second segment) or when the delay timer fires; out-of-order and
	// duplicate arrivals are always acknowledged immediately.
	delayAcks  bool
	ackDelay   time.Duration
	ackPending bool
	ackTimer   *sim.Timer

	// echoCE carries a received ECN congestion mark onto the next
	// emitted acknowledgment.
	echoCE bool

	// sackEnabled attaches selective-acknowledgment blocks describing
	// the out-of-order data held in the reorder buffer.
	sackEnabled bool

	// onDeliver, when set, observes every in-order delivery watermark
	// (application workloads use it to measure response latencies).
	onDeliver func(total units.ByteSize)

	stats SinkStats
}

// DefaultAckDelay is the common 200 ms delayed-ACK timer.
const DefaultAckDelay = 200 * time.Millisecond

// NewSink wires a sink that emits ACKs through out (typically the reverse
// wireless link's Send). window is the advertised receive window.
func NewSink(s *sim.Simulator, window units.ByteSize, ids *packet.IDGen, out func(*packet.Packet)) (*Sink, error) {
	if window <= 0 {
		return nil, errors.New("tcp: sink window must be positive")
	}
	if out == nil {
		return nil, errors.New("tcp: nil sink output callback")
	}
	k := &Sink{
		sim:    s,
		ids:    ids,
		out:    out,
		window: window,
	}
	k.ackTimer = sim.NewTimer(s, k.onAckDelay)
	return k, nil
}

// EnableSACK attaches RFC 2018 selective-acknowledgment blocks to every
// ACK. The paper's TCP predates SACK; the option exists as an ablation
// (see the sender's matching Config.SACK).
func (k *Sink) EnableSACK() { k.sackEnabled = true }

// SetDeliveredHook installs a callback invoked with the cumulative
// in-order payload after every delivery. May be nil.
func (k *Sink) SetDeliveredHook(fn func(total units.ByteSize)) { k.onDeliver = fn }

// sackBlocks summarizes the buffered out-of-order data as up to
// MaxSACKBlocks contiguous ranges, lowest first.
func (k *Sink) sackBlocks() []packet.SACKBlock {
	if !k.sackEnabled || len(k.buffered) == 0 {
		return nil
	}
	var blocks []packet.SACKBlock
	for _, b := range k.buffered {
		seq, end := b.Key, b.Key+int64(b.Val)
		if n := len(blocks); n > 0 && blocks[n-1].End == seq {
			blocks[n-1].End = end
			continue
		}
		if len(blocks) == packet.MaxSACKBlocks {
			break
		}
		blocks = append(blocks, packet.SACKBlock{Start: seq, End: end})
	}
	return blocks
}

// EnableDelayedAcks turns on RFC 1122 delayed acknowledgments with the
// given timer (non-positive uses DefaultAckDelay). The ns sink the paper
// used acks every segment; this option exists as an ablation.
func (k *Sink) EnableDelayedAcks(delay time.Duration) {
	if delay <= 0 {
		delay = DefaultAckDelay
	}
	k.delayAcks = true
	k.ackDelay = delay
}

// Delivered reports the total in-order payload handed to the application.
func (k *Sink) Delivered() units.ByteSize { return k.delivered }

// RcvNxt reports the next expected byte offset.
func (k *Sink) RcvNxt() int64 { return k.rcvNxt }

// LastArrival reports when the most recent in-order payload arrived.
func (k *Sink) LastArrival() time.Duration { return k.lastArrival }

// Stats returns a copy of the counters.
func (k *Sink) Stats() SinkStats { return k.stats }

// Receive accepts a Data segment, updates the reassembly state, and emits
// an immediate cumulative ACK. Non-data packets are ignored. Either way
// the packet is released: the sink is where forward-path packets end.
func (k *Sink) Receive(p *packet.Packet) {
	defer p.Release()
	if p.Kind != packet.Data {
		return
	}
	k.stats.SegmentsReceived++
	if p.CongestionMarked {
		k.echoCE = true
	}
	advanced := false
	switch {
	case p.Seq == k.rcvNxt:
		k.accept(p.Seq, p.Payload)
		k.drainBuffered()
		advanced = true
		if k.onDeliver != nil {
			k.onDeliver(k.delivered)
		}
	case p.Seq > k.rcvNxt:
		// Out of order: buffer if it fits the advertised window and is
		// not already held.
		if k.buffered.Find(p.Seq) >= 0 {
			k.stats.DuplicateSegments++
		} else if p.End() <= k.rcvNxt+int64(k.window) {
			k.buffered.Insert(p.Seq, p.Payload)
			k.stats.BufferedSegments++
			k.stats.BufferedPeak = max(k.stats.BufferedPeak, len(k.buffered))
		}
	default:
		if p.End() > k.rcvNxt {
			// Partial overlap: a retransmission whose boundaries merged
			// previously separate writes. Accept the new suffix.
			k.accept(k.rcvNxt, units.ByteSize(p.End()-k.rcvNxt))
			k.drainBuffered()
			advanced = true
			if k.onDeliver != nil {
				k.onDeliver(k.delivered)
			}
		} else {
			// Wholly old data (retransmission of something delivered).
			k.stats.DuplicateSegments++
		}
	}
	k.sendAck(advanced)
}

// accept consumes one in-order segment.
func (k *Sink) accept(seq int64, payload units.ByteSize) {
	_ = seq // always == rcvNxt here
	k.rcvNxt += int64(payload)
	k.delivered += payload
	k.lastArrival = k.sim.Now()
}

// drainBuffered consumes any buffered segments made contiguous.
func (k *Sink) drainBuffered() {
	for {
		i := k.buffered.Find(k.rcvNxt)
		if i < 0 {
			return
		}
		payload := k.buffered[i].Val
		k.buffered.Delete(i)
		k.accept(k.rcvNxt, payload)
	}
}

// sendAck decides whether to emit a cumulative ACK for rcv_nxt now or to
// hold it under the delayed-ACK policy.
func (k *Sink) sendAck(advanced bool) {
	if !k.delayAcks || !advanced {
		// Immediate mode, or a duplicate/out-of-order arrival: the
		// sender needs the dupack now for fast retransmit. A pending
		// delayed ack is folded into this one.
		k.ackPending = false
		k.ackTimer.Stop()
		k.emitAck(advanced)
		return
	}
	if k.ackPending {
		// Second in-order segment: ack immediately (RFC 1122's "at
		// least every second segment").
		k.ackPending = false
		k.ackTimer.Stop()
		k.emitAck(true)
		return
	}
	k.ackPending = true
	k.ackTimer.Set(k.ackDelay)
}

// DupAck emits a duplicate acknowledgment for rcv_nxt at once, outside
// the arrival-driven policy: the mobile host's nudge to the source after
// a handoff [Caceres & Iftode 94].
func (k *Sink) DupAck() { k.emitAck(false) }

// onAckDelay fires the delayed-ACK timer.
func (k *Sink) onAckDelay() {
	if !k.ackPending {
		return
	}
	k.ackPending = false
	k.emitAck(true)
}

// emitAck sends the ACK packet, echoing any pending congestion mark.
func (k *Sink) emitAck(advanced bool) {
	k.stats.AcksSent++
	if !advanced {
		k.stats.DupAcksSent++
	}
	ce := k.echoCE
	k.echoCE = false
	ack := k.ids.New(packet.Ack)
	ack.AckNo = k.rcvNxt
	ack.CongestionMarked = ce
	ack.SACK = k.sackBlocks()
	ack.SentAt = k.sim.Now()
	k.out(ack)
}
