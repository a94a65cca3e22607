package cell

import (
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// The sender side of a flow is internal/tcp's state machine, not a copy
// of it: each flow owns one tcp.State row, and the engine is the tcp.Host
// the shared transitions run against — its clock is the kernel's, its
// retransmission timer a wheel index, its wire the arena and the calendar.
// The transitions are synchronous and never re-enter the engine for a
// second flow, so one field (cur) names the flow the host methods act on.
// The sink is the cell's own: a fixed per-flow reorder slab where tcp.Sink
// keeps a map, specialized to the CSDP study's configuration (per-segment
// ACKs, no SACK/ECN/delayed-ack).

// ---- sender (tcp.State rows, hosted by the engine) ----

// flow makes f the flow the tcp.Host methods act on and returns its row.
func (e *engine) flow(f int32) *tcp.State {
	e.cur = f
	return &e.rows[f]
}

// startFlow opens flow f's transfer.
func (e *engine) startFlow(f int32) {
	if e.started[f] {
		return
	}
	e.started[f] = true
	e.flow(f).Send(&e.tcp, e)
}

// ackArrive hands flow f's sender a cumulative acknowledgment, and
// settles the flow when it was the last one.
func (e *engine) ackArrive(f int32, ackNo int64) {
	st := e.flow(f)
	st.OnAck(&e.tcp, e, ackNo, nil)
	if !e.done[f] && st.Done(&e.tcp) {
		e.done[f] = true
		e.finishAt[f] = e.s.Now()
		e.doneCount++
	}
}

// Now is the kernel's clock (tcp.Host).
func (e *engine) Now() time.Duration { return e.s.Now() }

// SetTimer re-arms the current flow's retransmission timer at now+d
// (tcp.Host; sim.Timer.Set semantics: cancel plus schedule).
func (e *engine) SetTimer(d time.Duration) {
	now := int64(e.s.Now())
	e.wheel.arm(e.cur, now+int64(d), now)
}

// StopTimer cancels the current flow's retransmission timer (tcp.Host).
func (e *engine) StopTimer() { e.wheel.cancel(e.cur) }

// TimerDeadline reports the current flow's pending deadline, negative
// when idle (tcp.Host).
func (e *engine) TimerDeadline() time.Duration {
	return time.Duration(e.wheel.deadlineOf(e.cur))
}

// Observe counts the current flow's timeouts and, when the flow is
// sampled, feeds the transition to its conformance checker (tcp.Host).
func (e *engine) Observe(ev tcp.StateSnapshot) {
	f := e.cur
	if ev.Kind == tcp.StateTimeout {
		e.fTimeouts[f]++
	}
	if e.oracle != nil {
		e.oracle.state(f, ev)
	}
}

// Transmit puts one of the current flow's segments on the wired forward
// hop (tcp.Host), collapsed into one arrival event: the pipe is per-flow
// and serial, and sends enter it in nondecreasing time order, so
// busy-until folding at transmit time is exact.
func (e *engine) Transmit(seq int64, payload units.ByteSize, retransmit bool) {
	f := e.cur
	size := packet.HeaderSize + payload
	if retransmit {
		e.fRetrans[f] += size
	}
	slot := e.arena.alloc(f, seq, int32(payload))
	now := e.s.Now()
	start := now
	if e.fwdBusy[f] > start {
		start = e.fwdBusy[f]
	}
	e.fwdBusy[f] = start + e.wiredTx.of(size)
	e.cal.push(calEvent{
		at:   int64(e.fwdBusy[f] + e.cfg.WiredDelay),
		kind: evWiredArrive,
		flow: f,
		bs:   f % int32(e.B),
		slot: slot,
	})
}

// ---- sink (Sink, immediate-ack mode, fixed reorder slab) ----

// sinkReceive accepts one data segment at the mobile host and emits the
// immediate cumulative ACK (Sink.Receive). The out-of-order buffer is a
// fixed per-flow slab instead of a map: segments sit on the MSS grid
// inside the advertised window, so at most segCap distinct starts exist.
func (e *engine) sinkReceive(f int32, seq, paylen int64) {
	end := seq + paylen
	switch rn := e.rcvNxt[f]; {
	case seq == rn:
		e.rcvNxt[f] = rn + paylen
		e.drainBuffered(f)
	case seq > rn:
		// Out of order: buffer if it fits the window and is not held.
		if e.oooFind(f, seq) < 0 && end <= rn+e.adv {
			e.oooInsert(f, seq, paylen)
		}
	default:
		if end > rn {
			// Partial overlap: accept the new suffix.
			e.rcvNxt[f] = end
			e.drainBuffered(f)
		}
		// Wholly old data: duplicate; ack below repeats rcv_nxt.
	}
	e.sinkEmitAck(f)
}

// oooFind returns the slab index holding seq, or -1.
func (e *engine) oooFind(f int32, seq int64) int {
	base := int(f) * e.segCap
	for i := 0; i < int(e.oooCount[f]); i++ {
		if e.oooSeq[base+i] == seq {
			return base + i
		}
	}
	return -1
}

// oooInsert buffers an out-of-order segment. A full slab drops the
// segment (cannot occur for MSS-grid senders; counted for the record).
func (e *engine) oooInsert(f int32, seq, paylen int64) {
	n := int(e.oooCount[f])
	if n >= e.segCap {
		e.oooOverflow++
		return
	}
	base := int(f) * e.segCap
	e.oooSeq[base+n] = seq
	e.oooLen[base+n] = int32(paylen)
	e.oooCount[f] = int32(n + 1)
}

// drainBuffered consumes buffered segments made contiguous
// (Sink.drainBuffered; exact-match lookups only, so slab order is
// irrelevant to behaviour).
func (e *engine) drainBuffered(f int32) {
	base := int(f) * e.segCap
	for {
		i := e.oooFind(f, e.rcvNxt[f])
		if i < 0 {
			return
		}
		e.rcvNxt[f] += int64(e.oooLen[i])
		last := base + int(e.oooCount[f]) - 1
		e.oooSeq[i] = e.oooSeq[last]
		e.oooLen[i] = e.oooLen[last]
		e.oooCount[f]--
	}
}

// sinkEmitAck carries the cumulative ACK across the fading uplink and
// the wired reverse pipe toward the sender (Sink.emitAck +
// engine.ackFromMobile, collapsed: the uplink loss draw happens here, at
// receive time, exactly where the object engine drew it).
func (e *engine) sinkEmitAck(f int32) {
	now := e.s.Now()
	ch := e.channelOf(f)
	if e.lossDraw(ch, now, now+e.ackTxRadio, int64(packet.ControlSize.Bits())) {
		return
	}
	// Uplink transit, then the wired reverse pipe (serial, per flow,
	// fed in nondecreasing time order: busy-until folding is exact).
	t1 := now + e.ackTxRadio + e.cfg.WirelessDelay
	start := t1
	if e.revBusy[f] > start {
		start = e.revBusy[f]
	}
	e.revBusy[f] = start + e.revAckTx
	e.cal.push(calEvent{
		at:   int64(e.revBusy[f] + e.cfg.WiredDelay),
		kind: evAckArrive,
		flow: f,
		a:    e.rcvNxt[f],
	})
}
