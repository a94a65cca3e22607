// Package node provides the end-host plumbing of the paper's topology.
// The fixed host is just a TCP sender behind the wired link, so it needs
// no wrapper; the mobile host needs one, because it combines three roles:
// link-level acknowledgment of received units (when the base station runs
// local recovery), IP reassembly of fragments, and the TCP sink.
package node

import (
	"errors"
	"time"

	"wtcp/internal/ip"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
)

// MobileStats counts mobile-host link-layer activity.
type MobileStats struct {
	// UnitsReceived counts link units (fragments or whole packets)
	// arriving over the wireless link.
	UnitsReceived uint64
	// LinkAcksSent counts link-level acknowledgments emitted.
	LinkAcksSent uint64
	// ReorderedUnits counts sequenced units held back to restore
	// in-order delivery; DuplicateUnits counts sequenced units received
	// again after delivery (their link ack was lost).
	ReorderedUnits uint64
	DuplicateUnits uint64
	// GapFlushes counts reorder-buffer flushes forced by the gap timer
	// (a unit was discarded by the base station's ARQ).
	GapFlushes uint64
	// ReorderPeak is the most sequenced units held back at once;
	// ReassemblyOpenPeak the most fragment groups partially assembled at
	// once.
	ReorderPeak        int
	ReassemblyOpenPeak int
}

// Mobile is the mobile-host agent. Wireless deliveries go to Receive; TCP
// acks and link acks leave through the uplink callback. Reassembled
// in-order traffic is handed to a delivery callback, the TCP sink's
// Receive.
type Mobile struct {
	sim      *sim.Simulator
	ids      *packet.IDGen
	uplink   func(*packet.Packet)
	deliver  func(*packet.Packet)
	reasm    *ip.Reassembler
	linkAcks bool

	// In-sequence delivery of ARQ-sequenced units: retransmission
	// backoffs reorder the air, and out-of-order TCP segments would
	// provoke duplicate ACKs (and spurious fast retransmits) that the
	// base station's recovery is supposed to prevent. Units carrying a
	// LinkSeq are buffered, by LinkSeq, until contiguous; a gap that
	// persists past reorderTimeout (an ARQ discard) is flushed. The buffer
	// holds only units above nextSeq, a couple of dozen at most.
	nextSeq        int64
	reorderBuf     queue.Table[int64, *packet.Packet]
	gapTimer       *sim.Timer
	reorderTimeout time.Duration

	// onSequenced observes every ARQ-sequenced unit handed up in link
	// order (nil when unused) — the conformance oracle's view of the
	// no-reordering guarantee.
	onSequenced func(*packet.Packet)

	stats MobileStats
}

// DefaultReorderTimeout flushes a reorder gap the base station's ARQ will
// never fill (its unit was discarded after RTmax attempts).
const DefaultReorderTimeout = 1500 * time.Millisecond

// MobileConfig parameterizes the agent.
type MobileConfig struct {
	// LinkAcks enables link-level acknowledgment of every received unit
	// (required by the base station's local-recovery schemes).
	LinkAcks bool
	// ReassemblyTimeout bounds how long a partial fragment group is held;
	// zero uses the ip package default.
	ReassemblyTimeout time.Duration
	// ReorderTimeout bounds how long a sequenced-unit gap is waited out;
	// zero uses DefaultReorderTimeout.
	ReorderTimeout time.Duration
}

// NewMobile wires a mobile host around an existing TCP sink. uplink emits
// packets onto the wireless uplink toward the base station.
func NewMobile(s *sim.Simulator, cfg MobileConfig, ids *packet.IDGen, sink *tcp.Sink, uplink func(*packet.Packet)) (*Mobile, error) {
	if sink == nil {
		return nil, errors.New("node: nil sink")
	}
	return NewMobileDeliver(s, cfg, ids, sink.Receive, uplink)
}

// NewMobileDeliver wires a mobile host that hands reassembled traffic to
// an arbitrary delivery callback (e.g. a per-connection dispatcher).
func NewMobileDeliver(s *sim.Simulator, cfg MobileConfig, ids *packet.IDGen, deliver func(*packet.Packet), uplink func(*packet.Packet)) (*Mobile, error) {
	if deliver == nil {
		return nil, errors.New("node: nil deliver")
	}
	if uplink == nil {
		return nil, errors.New("node: nil uplink")
	}
	if cfg.ReorderTimeout <= 0 {
		cfg.ReorderTimeout = DefaultReorderTimeout
	}
	m := &Mobile{
		sim:            s,
		ids:            ids,
		uplink:         uplink,
		deliver:        deliver,
		linkAcks:       cfg.LinkAcks,
		nextSeq:        1,
		reorderTimeout: cfg.ReorderTimeout,
	}
	m.gapTimer = sim.NewTimer(s, m.flushGap)
	reasm, err := ip.NewReassembler(s, cfg.ReassemblyTimeout, func(p *packet.Packet) {
		m.deliver(p)
	})
	if err != nil {
		return nil, err
	}
	m.reasm = reasm
	return m, nil
}

// Stats returns a copy of the counters.
func (m *Mobile) Stats() MobileStats {
	st := m.stats
	st.ReassemblyOpenPeak = m.reasm.Stats().OpenPeak
	return st
}

// SetSequencedHook installs an observer invoked for every ARQ-sequenced
// unit as it is handed up in link order (before reassembly). The observer
// must not mutate the packet or the host; nil clears it.
func (m *Mobile) SetSequencedHook(fn func(*packet.Packet)) { m.onSequenced = fn }

// Reassembler exposes reassembly statistics.
func (m *Mobile) Reassembler() *ip.Reassembler { return m.reasm }

// Receive accepts a packet delivered by the wireless downlink, taking
// over the caller's reference.
func (m *Mobile) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Fragment, packet.Data:
		m.stats.UnitsReceived++
		if m.linkAcks {
			m.stats.LinkAcksSent++
			ack := m.ids.New(packet.LinkAck)
			ack.AckNo = int64(p.ID)
			ack.SentAt = m.sim.Now()
			m.uplink(ack)
		}
		if p.LinkSeq > 0 {
			m.receiveSequenced(p)
		} else {
			m.reasm.Receive(p)
		}
	default:
		// Control packets are not addressed to the mobile host.
		p.Release()
	}
}

// receiveSequenced buffers ARQ-sequenced units until contiguous and
// delivers them upward in link order.
func (m *Mobile) receiveSequenced(p *packet.Packet) {
	if p.LinkSeq < m.nextSeq {
		// Already delivered: the retransmission raced a lost link ack.
		m.stats.DuplicateUnits++
		p.Release()
		return
	}
	if p.LinkSeq == m.nextSeq {
		// The common case, in order: no need to visit the buffer, which
		// never holds nextSeq between calls.
		m.handUp(p)
	} else {
		if _, fresh := m.reorderBuf.Insert(p.LinkSeq, p); !fresh {
			m.stats.DuplicateUnits++
			p.Release()
			return
		}
		m.stats.ReorderedUnits++
		m.stats.ReorderPeak = max(m.stats.ReorderPeak, len(m.reorderBuf))
	}
	m.drainReorder()
}

// handUp passes the unit at nextSeq on to reassembly.
func (m *Mobile) handUp(p *packet.Packet) {
	m.nextSeq++
	if m.onSequenced != nil {
		m.onSequenced(p)
	}
	m.reasm.Receive(p)
}

// drainReorder delivers the contiguous run at nextSeq and manages the gap
// timer for whatever remains.
func (m *Mobile) drainReorder() {
	for len(m.reorderBuf) > 0 && m.reorderBuf[0].Key == m.nextSeq {
		p := m.reorderBuf[0].Val
		m.reorderBuf.Delete(0)
		m.handUp(p)
	}
	if len(m.reorderBuf) == 0 {
		m.gapTimer.Stop()
	} else if !m.gapTimer.Pending() {
		m.gapTimer.Set(m.reorderTimeout)
	}
}

// flushGap gives up on the missing unit (the base station discarded it)
// and resumes delivery at the next buffered sequence number.
func (m *Mobile) flushGap() {
	if len(m.reorderBuf) == 0 {
		return
	}
	m.stats.GapFlushes++
	m.nextSeq = m.reorderBuf[0].Key
	m.drainReorder()
}

// ReleaseAll gives up the units still waiting in the reorder buffer. It
// is the end-of-run teardown; the host must not receive afterwards.
func (m *Mobile) ReleaseAll() {
	for _, u := range m.reorderBuf {
		u.Val.Release()
	}
	m.reorderBuf.Reset()
}
