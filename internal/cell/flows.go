package cell

import (
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// This file is the struct-of-arrays port of the repository's TCP
// endpoints: the Tahoe sender (internal/tcp/sender.go), the coarse-clock
// RTO estimator (internal/tcp/rto.go), and the immediate-ack sink
// (internal/tcp/sink.go), specialized to the multiconn configuration
// (non-streaming transfer, per-segment ACKs, no SACK/ECN/delayed-ack).
// Every arithmetic expression keeps the original's operation order —
// float updates included — because internal/multiconn pins the cell
// engine bit-identical to the object-per-flow engine it replaced. Change
// the originals and this port together, or the differential test fails.

// ---- sender ----

// startFlow opens flow f's transfer (Sender.Start).
func (e *engine) startFlow(f int32) {
	if e.started[f] {
		return
	}
	e.started[f] = true
	e.trySend(f)
}

// window is the usable send window in bytes: min(cwnd, advertised),
// floored at one segment (Sender.window).
func (e *engine) window(f int32) int64 {
	w := int64(e.cwnd[f])
	if e.adv < w {
		w = e.adv
	}
	if w < e.mss {
		w = e.mss
	}
	return w
}

// trySend transmits as many segments as the window allows
// (Sender.trySend, with the application's whole transfer available).
func (e *engine) trySend(f int32) {
	if e.done[f] {
		return
	}
	for e.sndNxt[f] < e.total {
		limit := e.sndUna[f] + e.window(f)
		space := limit - e.sndNxt[f]
		remaining := e.total - e.sndNxt[f]
		seglen := e.mss
		if remaining < seglen {
			seglen = remaining
		}
		if space < seglen {
			// Silly-window avoidance: wait for an ACK rather than send a
			// partial segment into a sliver of window.
			return
		}
		e.emit(f, e.sndNxt[f], seglen)
		e.sndNxt[f] += seglen
		if e.sndNxt[f] > e.sndMax[f] {
			e.sndMax[f] = e.sndNxt[f]
		}
	}
}

// emit sends one segment starting at seq (Sender.emit): counters, Karn
// RTT timing, timer arm, then the wired forward pipe.
func (e *engine) emit(f int32, seq, seglen int64) {
	retx := seq < e.sndMax[f]
	size := packet.HeaderSize + units.ByteSize(seglen)
	if retx {
		e.fRetrans[f] += size
	}
	// Time one fresh segment per window (Karn: never a retransmission).
	if !e.timing[f] && !retx {
		e.timing[f] = true
		e.timedSeq[f] = seq
		e.timedAtTick[f] = int32(e.rtoTicks(e.s.Now()))
	}
	if !e.wheel.armed(f) {
		e.timerSet(f)
	}
	if e.oracle != nil {
		e.oracleSend(f, seq, seglen, retx)
	}
	// The wired forward hop, collapsed into one arrival event: the pipe
	// is per-flow and serial, and sends enter it in nondecreasing time
	// order, so busy-until folding at emit time is exact.
	slot := e.arena.alloc(f, seq, int32(seglen))
	now := e.s.Now()
	start := now
	if e.fwdBusy[f] > start {
		start = e.fwdBusy[f]
	}
	e.fwdBusy[f] = start + units.TransmissionTime(size, e.cfg.WiredRate)
	e.cal.push(calEvent{
		at:   int64(e.fwdBusy[f] + e.cfg.WiredDelay),
		kind: evWiredArrive,
		flow: f,
		bs:   f % int32(e.B),
		slot: slot,
	})
}

// timerSet re-arms flow f's retransmission timer at now+RTO
// (sim.Timer.Set semantics: cancel plus schedule).
func (e *engine) timerSet(f int32) {
	now := int64(e.s.Now())
	e.wheel.arm(f, now+int64(e.rtoRTO(f)), now)
}

// senderOnAck processes a cumulative acknowledgment (Sender.onAck).
func (e *engine) senderOnAck(f int32, ackNo int64) {
	if e.done[f] {
		return
	}
	if ackNo > e.sndMax[f] {
		// Acknowledgment for data never sent: RFC 793 drops it.
		e.oracleAck(f, ackNo, tcp.AckInvalid)
		return
	}
	switch {
	case ackNo > e.sndUna[f]:
		e.onNewAck(f, ackNo)
	case ackNo == e.sndUna[f] && e.sndNxt[f] > e.sndUna[f]:
		e.onDupAck(f)
	default:
		e.oracleAck(f, ackNo, tcp.AckOld)
	}
}

func (e *engine) onNewAck(f int32, ackNo int64) {
	// RTT sample if the timed segment is covered and never retransmitted.
	if e.timing[f] && ackNo > e.timedSeq[f] {
		e.rtoSample(f, e.rtoTicks(e.s.Now())-int(e.timedAtTick[f]))
		e.timing[f] = false
	}
	e.growCwnd(f)
	e.dupacks[f] = 0
	e.sndUna[f] = ackNo
	if e.sndNxt[f] < e.sndUna[f] {
		e.sndNxt[f] = e.sndUna[f]
	}
	if e.sndUna[f] >= e.total {
		e.complete(f)
		e.oracleAck(f, ackNo, tcp.AckNew)
		return
	}
	if e.sndNxt[f] > e.sndUna[f] {
		e.timerSet(f)
	} else {
		e.wheel.cancel(f)
	}
	e.oracleAck(f, ackNo, tcp.AckNew)
	e.trySend(f)
}

// growCwnd applies slow start or congestion avoidance for one new ACK
// (Sender.growCwnd; identical float operation order).
func (e *engine) growCwnd(f int32) {
	mss := float64(e.mss)
	if e.cwnd[f] < e.ssthresh[f] {
		e.cwnd[f] += mss
	} else {
		e.cwnd[f] += mss * mss / e.cwnd[f]
	}
	if cap := float64(e.adv) + mss; e.cwnd[f] > cap {
		e.cwnd[f] = cap
	}
}

func (e *engine) onDupAck(f int32) {
	e.dupacks[f]++
	if e.dupacks[f] != tcp.DupAckThreshold {
		e.oracleAck(f, e.sndUna[f], tcp.AckDup)
		return
	}
	// Fast retransmit, Tahoe: collapse and slow-start from snd_una.
	e.halveSsthresh(f)
	e.timing[f] = false
	e.cwnd[f] = float64(e.mss)
	e.sndNxt[f] = e.sndUna[f]
	e.dupacks[f] = 0
	e.timerSet(f)
	if e.oracle != nil {
		e.oracleState(f, tcp.StateFastRetx, e.sndUna[f])
	}
	e.trySend(f)
}

// halveSsthresh sets ssthresh to half the effective window, floored at
// two segments (Sender.halveSsthresh).
func (e *engine) halveSsthresh(f int32) {
	flight := e.cwnd[f]
	if adv := float64(e.adv); adv < flight {
		flight = adv
	}
	half := flight / 2
	if min := 2 * float64(e.mss); half < min {
		half = min
	}
	e.ssthresh[f] = half
}

// onTimeout is the retransmission-timer expiry (Sender.onTimeout). The
// wheel has already cleared the deadline when this runs.
func (e *engine) onTimeout(f int32) {
	if e.done[f] {
		return
	}
	if e.sndNxt[f] <= e.sndUna[f] {
		// Nothing outstanding: a stale expiry must not collapse the
		// window.
		return
	}
	e.fTimeouts[f]++
	e.halveSsthresh(f)
	e.cwnd[f] = float64(e.mss)
	e.rtoBackoff(f)
	e.timing[f] = false
	e.dupacks[f] = 0
	e.sndNxt[f] = e.sndUna[f]
	e.timerSet(f)
	if e.oracle != nil {
		e.oracleState(f, tcp.StateTimeout, e.sndUna[f])
	}
	e.trySend(f)
}

// senderOnEBSN re-arms the pending timer with the current timeout value;
// estimators and windows untouched (Sender.onEBSN).
func (e *engine) senderOnEBSN(f int32) {
	if e.done[f] {
		return
	}
	if e.sndNxt[f] > e.sndUna[f] {
		e.timerSet(f)
	}
	if e.oracle != nil {
		e.oracleState(f, tcp.StateEBSN, 0)
	}
}

// complete marks flow f's transfer finished (Sender.complete).
func (e *engine) complete(f int32) {
	e.done[f] = true
	e.finishAt[f] = e.s.Now()
	e.wheel.cancel(f)
	e.doneCount++
}

// ---- RTO estimator (RTOEstimator, struct-of-arrays) ----

const (
	maxBackoffShift = 6
	minRTOTicks     = 2
)

// rtoTicks converts a duration to whole clock ticks, truncating.
func (e *engine) rtoTicks(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(d / e.granularity)
}

// rtoSample feeds one round-trip measurement in ticks
// (RTOEstimator.Sample; identical float operation order).
func (e *engine) rtoSample(f int32, ticks int) {
	m := float64(ticks)
	if !e.hasSample[f] {
		e.srtt[f] = m
		e.rttvar[f] = m / 2
		e.hasSample[f] = true
	} else {
		err := m - e.srtt[f]
		e.srtt[f] += err / 8
		if err < 0 {
			err = -err
		}
		e.rttvar[f] += (err - e.rttvar[f]) / 4
	}
	e.shift[f] = 0
}

// rtoBase returns the un-backed-off timeout (RTOEstimator.base).
func (e *engine) rtoBase(f int32) time.Duration {
	if !e.hasSample[f] {
		return e.initialRTO
	}
	ticks := e.srtt[f] + 4*e.rttvar[f]
	if ticks < minRTOTicks {
		ticks = minRTOTicks
	}
	return time.Duration(ticks * float64(e.granularity))
}

// rtoRTO reports the current timeout with Karn backoff, clamped
// (RTOEstimator.RTO).
func (e *engine) rtoRTO(f int32) time.Duration {
	rto := e.rtoBase(f) << uint(e.shift[f])
	if rto > e.maxRTO {
		rto = e.maxRTO
	}
	return rto
}

// rtoBackoff doubles the next timeout up to the 64x cap
// (RTOEstimator.Backoff).
func (e *engine) rtoBackoff(f int32) {
	if e.shift[f] < maxBackoffShift {
		e.shift[f]++
	}
}

// ---- sink (Sink, immediate-ack mode, fixed reorder slab) ----

// sinkReceive accepts one data segment at the mobile host and emits the
// immediate cumulative ACK (Sink.Receive). The out-of-order buffer is a
// fixed per-flow slab instead of a map: segments sit on the MSS grid
// inside the advertised window, so at most segCap distinct starts exist.
func (e *engine) sinkReceive(f int32, seq, paylen int64) {
	advanced := false
	end := seq + paylen
	switch rn := e.rcvNxt[f]; {
	case seq == rn:
		e.rcvNxt[f] = rn + paylen
		e.drainBuffered(f)
		advanced = true
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
			advanced = true
		}
		// Wholly old data: duplicate; ack below repeats rcv_nxt.
	}
	e.sinkEmitAck(f, advanced)
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
func (e *engine) sinkEmitAck(f int32, advanced bool) {
	_ = advanced // the ack packet is the same either way (no delayed acks)
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
