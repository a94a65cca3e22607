package tcp

import (
	"fmt"
	"math"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/units"
)

// State is one connection's whole sender-side protocol state: the
// sequence pointers, congestion control, loss recovery, Karn timing and
// the RTT estimator. It is a plain value with no pointers into its
// surroundings, so an engine may hold one per connection or a slab of
// them; every transition runs in place on a *State against a read-only
// *Config (already through WithDefaults) and a Host. Create with
// Config.NewState.
type State struct {
	// Sequence state (byte offsets into the transfer).
	SndUna int64 // oldest unacknowledged byte
	SndNxt int64 // next byte to send
	SndMax int64 // highest byte ever sent + 1 (retransmit detector)

	// Congestion control, in bytes. Cwnd is fractional because congestion
	// avoidance adds MSS*MSS/cwnd per ACK.
	Cwnd     float64
	Ssthresh float64

	rtt rtt

	// RTT measurement: one segment timed at a time (BSD style). Timing is
	// cancelled by retransmission per Karn's algorithm.
	timedSeq    int64
	timedAtTick int32
	dupacks     int32
	timing      bool
	// inRecovery marks Reno fast recovery; recover is snd_max at loss
	// detection.
	inRecovery bool
	recover    int64

	avail int64 // bytes the application has produced (== Total unless streaming)
	// ecnGuard limits ECN window halving to once per flight.
	ecnGuard int64

	// sack tracks selectively acknowledged ranges (Config.SACK).
	sack scoreboard
}

// Host is what a connection's surroundings provide to the transitions:
// a clock, a way to put a segment on the wire, the connection's one
// retransmission timer, and an observer. The transitions never ask which
// engine is behind it.
type Host interface {
	// Now reports the simulation clock.
	Now() time.Duration
	// Transmit puts one data segment on the wire.
	Transmit(seq int64, payload units.ByteSize, retransmit bool)
	// SetTimer arms the retransmission timer to fire d from now, replacing
	// any pending deadline; on expiry the host runs State.OnTimeout.
	SetTimer(d time.Duration)
	// StopTimer cancels any pending deadline.
	StopTimer()
	// TimerDeadline reports the virtual time the timer will fire, or a
	// negative value when it is idle.
	TimerDeadline() time.Duration
	// Observe reports one transition, after every state mutation it made
	// (timer re-arms included). ev carries only the transition's own
	// operands (Kind, Seq, Payload, Retransmit, AckNo, AckClass); a host
	// that wants the full post-transition picture completes it with
	// State.Snapshot, so a connection nobody watches pays for none of it.
	Observe(ev StateSnapshot)
}

// NewState returns the state of a connection that has sent nothing.
func (c *Config) NewState() State {
	st := State{
		Cwnd:     float64(c.InitialCwnd) * float64(c.MSS),
		Ssthresh: float64(c.Window),
	}
	if !c.Streaming {
		st.avail = int64(c.Total)
	}
	return st
}

// Done reports whether every payload byte has been acknowledged. A
// finished connection ignores every further input.
func (st *State) Done(c *Config) bool { return st.SndUna >= int64(c.Total) }

// Snapshot completes ev, the operands of the transition a Host is being
// told about, with the post-transition state.
func (st *State) Snapshot(c *Config, h Host, ev *StateSnapshot) {
	ev.Cwnd = units.ByteSize(st.Cwnd)
	ev.Ssthresh = units.ByteSize(st.Ssthresh)
	ev.SndUna = st.SndUna
	ev.SndNxt = st.SndNxt
	ev.SndMax = st.SndMax
	ev.RTO = st.rto(c).RTO()
	ev.TimerDeadline = h.TimerDeadline()
	ev.BackoffShift = int(st.rtt.shift)
	ev.DupAcks = int(st.dupacks)
}

// rto views the connection's RTT estimator.
func (st *State) rto(c *Config) RTOEstimator { return RTOEstimator{c: c, st: &st.rtt} }

// cwndCeiling bounds the congestion window: Reno inflation can push cwnd
// past the advertised window by up to a flight of dupacks; anything beyond
// twice the window plus that allowance is runaway growth. Inflation stops
// here and CheckInvariants reports anything above it.
func (c *Config) cwndCeiling() float64 {
	mss := float64(c.MSS)
	return 2*(float64(c.Window)+mss) + float64(DupAckThreshold)*mss
}

// CheckInvariants verifies the state's internal consistency: the
// congestion window within its legal bounds and the sequence pointers in
// their required order. A violation means a protocol bug, not a network
// condition (no network behaviour, however adversarial, may break these).
func (st *State) CheckInvariants(c *Config) error {
	switch {
	case math.IsNaN(st.Cwnd) || math.IsInf(st.Cwnd, 0):
		return fmt.Errorf("cwnd is not finite: %v", st.Cwnd)
	case st.Cwnd < float64(c.MSS):
		return fmt.Errorf("cwnd %.1f below one segment (%v)", st.Cwnd, c.MSS)
	case st.Cwnd > c.cwndCeiling():
		return fmt.Errorf("cwnd %.1f beyond any legal inflation of the %v window", st.Cwnd, c.Window)
	case st.Ssthresh < 0:
		return fmt.Errorf("negative ssthresh %.1f", st.Ssthresh)
	case st.SndUna < 0 || st.SndUna > st.SndNxt:
		return fmt.Errorf("sequence order violated: snd_una %d > snd_nxt %d", st.SndUna, st.SndNxt)
	case st.SndNxt > st.SndMax:
		return fmt.Errorf("sequence order violated: snd_nxt %d > snd_max %d", st.SndNxt, st.SndMax)
	case st.SndMax > int64(c.Total):
		return fmt.Errorf("snd_max %d beyond the %d-byte transfer", st.SndMax, c.Total)
	case st.avail > int64(c.Total):
		return fmt.Errorf("application made %d bytes available of a %d-byte transfer", st.avail, c.Total)
	default:
		return nil
	}
}

// window is the usable send window in bytes: min(cwnd, advertised).
func (st *State) window(c *Config) int64 {
	w := int64(st.Cwnd)
	if adv := int64(c.Window); adv < w {
		w = adv
	}
	if w < int64(c.MSS) {
		w = int64(c.MSS)
	}
	return w
}

// Send transmits as many segments as the window allows. It opens the
// transfer and follows every transition that may have made room.
func (st *State) Send(c *Config, h Host) {
	total := int64(c.Total)
	for st.SndNxt < total {
		limit := st.SndUna + st.window(c)
		space := limit - st.SndNxt
		remaining := total - st.SndNxt
		produced := st.avail - st.SndNxt
		seglen := int64(c.MSS)
		if remaining < seglen {
			seglen = remaining
		}
		if produced <= 0 {
			return // nothing new from the application yet
		}
		if produced < seglen {
			// The application wrote less than a full segment; flush what
			// exists (PSH semantics — an interactive write or a page tail
			// must not wait for bytes that may never come).
			seglen = produced
		}
		if space < seglen {
			// Don't send a partial segment just because the window has a
			// sliver of space (silly-window avoidance); wait for an ACK.
			return
		}
		// SACK: a rewound pass skips ranges the receiver already holds.
		if c.SACK && st.SndNxt < st.SndMax && st.sack.covered(st.SndNxt, st.SndNxt+seglen) {
			h.Observe(StateSnapshot{Kind: StateSACKSkip, Seq: st.SndNxt, Payload: units.ByteSize(seglen)})
			st.SndNxt += seglen
			continue
		}
		st.emit(c, h, st.SndNxt, seglen)
		st.SndNxt += seglen
		if st.SndNxt > st.SndMax {
			st.SndMax = st.SndNxt
		}
	}
}

// emit sends one segment starting at seq.
func (st *State) emit(c *Config, h Host, seq, seglen int64) {
	retx := seq < st.SndMax
	// Time one fresh segment per window (Karn: never a retransmission).
	if !st.timing && !retx {
		st.timing = true
		st.timedSeq = seq
		st.timedAtTick = int32(st.rto(c).Ticks(h.Now()))
	}
	if h.TimerDeadline() < 0 {
		h.SetTimer(st.rto(c).RTO())
	}
	h.Observe(StateSnapshot{Kind: StateSend, Seq: seq, Payload: units.ByteSize(seglen), Retransmit: retx})
	h.Transmit(seq, units.ByteSize(seglen), retx)
}

// observeAck reports the outcome of processing one cumulative ACK.
func observeAck(h Host, ackNo int64, class AckClass) {
	h.Observe(StateSnapshot{Kind: StateAck, AckNo: ackNo, AckClass: class})
}

// OnECNEcho is the [Floyd 94] ECN response: halve the window as a
// congestion signal, at most once per window of data (repeated echoes
// within one flight describe the same congestion event).
func (st *State) OnECNEcho(c *Config, h Host) {
	if st.Done(c) || st.SndUna < st.ecnGuard {
		return
	}
	st.halveSsthresh(c)
	st.Cwnd = st.Ssthresh
	st.ecnGuard = st.SndNxt
	h.Observe(StateSnapshot{Kind: StateECN})
}

// OnAck processes a cumulative acknowledgment and the SACK blocks it
// carried, if any.
func (st *State) OnAck(c *Config, h Host, ackNo int64, sack []packet.SACKBlock) {
	if st.Done(c) {
		return
	}
	if c.SACK && len(sack) > 0 {
		st.sack.record(sack)
	}
	switch {
	case ackNo > st.SndMax:
		// Acknowledgment for data never sent (corrupted or forged);
		// accepting it would desynchronize the window. RFC 793 drops it.
		observeAck(h, ackNo, AckInvalid)
	case ackNo > st.SndUna:
		st.onNewAck(c, h, ackNo)
	case ackNo == st.SndUna && st.SndNxt > st.SndUna:
		st.onDupAck(c, h)
	default:
		// Old ACK (below snd_una): ignore.
		observeAck(h, ackNo, AckOld)
	}
}

func (st *State) onNewAck(c *Config, h Host, ackNo int64) {
	// RTT sample if the timed segment is covered and was never
	// retransmitted (timing is cancelled on retransmission).
	if st.timing && ackNo > st.timedSeq {
		rto := st.rto(c)
		rto.Sample(rto.Ticks(h.Now()) - int(st.timedAtTick))
		st.timing = false
	}

	switch {
	case !st.inRecovery:
		st.growCwnd(c)
	case ackNo < st.recover && c.Variant.PartialAckRetransmit():
		// Partial ACK (NewReno, SACK): the next segment after ackNo is
		// also missing; retransmit it immediately and stay in recovery,
		// deflating by the amount acknowledged.
		st.Cwnd -= float64(ackNo - st.SndUna)
		if mss := float64(c.MSS); st.Cwnd < mss {
			st.Cwnd = mss
		}
		st.dupacks = 0
		st.SndUna = ackNo
		if st.SndNxt < st.SndUna {
			st.SndNxt = st.SndUna
		}
		st.retransmitFirst(c, h)
		observeAck(h, ackNo, AckNew)
		st.Send(c, h)
		return
	default:
		// Full recovery — or any new ACK under plain Reno: deflate to
		// ssthresh and exit.
		st.Cwnd = st.Ssthresh
		st.inRecovery = false
	}

	st.dupacks = 0
	st.SndUna = ackNo
	if st.SndNxt < st.SndUna {
		st.SndNxt = st.SndUna
	}
	if c.SACK {
		st.sack.advance(st.SndUna)
	}

	if st.Done(c) {
		h.StopTimer()
		observeAck(h, ackNo, AckNew)
		return
	}
	// Restart the timer for the remaining outstanding data; with nothing
	// in flight the timer must stop (an idle connection has nothing to
	// retransmit — a spurious expiry would collapse the window).
	if st.SndNxt > st.SndUna {
		h.SetTimer(st.rto(c).RTO())
	} else {
		h.StopTimer()
	}
	observeAck(h, ackNo, AckNew)
	st.Send(c, h)
}

// growCwnd applies slow start or congestion avoidance for one new ACK.
func (st *State) growCwnd(c *Config) {
	mss := float64(c.MSS)
	if st.Cwnd < st.Ssthresh {
		st.Cwnd += mss
	} else {
		st.Cwnd += mss * mss / st.Cwnd
	}
	// cwnd is not allowed to grow beyond what the advertised window can
	// use, plus one segment of headroom (keeps the float bounded).
	if cap := float64(c.Window) + mss; st.Cwnd > cap {
		st.Cwnd = cap
	}
}

func (st *State) onDupAck(c *Config, h Host) {
	st.dupacks++
	mss := float64(c.MSS)
	if st.inRecovery {
		// Reno: inflate the window during recovery, up to the ceiling —
		// a peer can repeat one ACK without end.
		st.Cwnd += mss
		if ceiling := c.cwndCeiling(); st.Cwnd > ceiling {
			st.Cwnd = ceiling
		}
		observeAck(h, st.SndUna, AckDup)
		st.Send(c, h)
		return
	}
	if st.dupacks != DupAckThreshold {
		observeAck(h, st.SndUna, AckDup)
		return
	}
	st.halveSsthresh(c)
	st.timing = false // Karn: the loss invalidates the in-flight sample
	if c.Variant.FastRecovery() {
		st.inRecovery = true
		st.recover = st.SndMax
		st.retransmitFirst(c, h)
		st.Cwnd = st.Ssthresh + DupAckThreshold*mss
		h.Observe(StateSnapshot{Kind: StateFastRetx, Seq: st.SndUna})
		return
	}
	// Tahoe: collapse and slow-start from snd_una (go-back-N).
	st.Cwnd = mss
	st.SndNxt = st.SndUna
	st.dupacks = 0
	h.SetTimer(st.rto(c).RTO())
	h.Observe(StateSnapshot{Kind: StateFastRetx, Seq: st.SndUna})
	st.Send(c, h)
}

// halveSsthresh sets ssthresh to half the effective window, floored at two
// segments, as in [Jacobson 88].
func (st *State) halveSsthresh(c *Config) {
	flight := st.Cwnd
	if adv := float64(c.Window); adv < flight {
		flight = adv
	}
	half := flight / 2
	if min := 2 * float64(c.MSS); half < min {
		half = min
	}
	st.Ssthresh = half
}

// retransmitFirst re-sends the segment at snd_una, extending snd_nxt over
// it if a rewind had left the hole uncovered. The re-sent length is
// clamped to snd_max − snd_una: a retransmission carries only bytes sent
// before, so snd_nxt never passes snd_max even when a partial ACK lands
// off the segment grid.
func (st *State) retransmitFirst(c *Config, h Host) {
	seglen := int64(c.MSS)
	if sent := st.SndMax - st.SndUna; sent < seglen {
		seglen = sent
	}
	if seglen <= 0 {
		return
	}
	st.emit(c, h, st.SndUna, seglen)
	// The retransmitted hole is outstanding data: snd_nxt must cover it,
	// or the connection looks idle (timer armed with snd_nxt == snd_una)
	// and a lost retransmission would never be retried. Reachable when a
	// partial ACK jumps past a timeout-rewound snd_nxt via data the
	// receiver buffered before the loss.
	if st.SndNxt < st.SndUna+seglen {
		st.SndNxt = st.SndUna + seglen
	}
	h.SetTimer(st.rto(c).RTO())
}

// OnTimeout is the retransmission-timer expiry: Tahoe congestion response
// plus Karn backoff.
func (st *State) OnTimeout(c *Config, h Host) {
	if st.Done(c) {
		return
	}
	if st.SndNxt <= st.SndUna {
		// Nothing outstanding (idle interactive connection): there is
		// nothing to retransmit and no congestion evidence; a stale
		// timer expiry must not collapse the window.
		return
	}
	st.halveSsthresh(c)
	st.Cwnd = float64(c.MSS)
	st.rto(c).Backoff()
	st.timing = false
	st.dupacks = 0
	st.inRecovery = false
	// Go-back-N: rewind and retransmit from the oldest unacked byte.
	st.SndNxt = st.SndUna
	h.SetTimer(st.rto(c).RTO())
	h.Observe(StateSnapshot{Kind: StateTimeout, Seq: st.SndUna})
	st.Send(c, h)
}

// OnEBSN implements the paper's response: replace any pending timer with a
// fresh one holding the *current* timeout value. RTT estimates, backoff,
// and the congestion window are untouched.
func (st *State) OnEBSN(c *Config, h Host) {
	if st.Done(c) {
		return
	}
	if st.SndNxt > st.SndUna { // only while data is outstanding
		h.SetTimer(st.rto(c).RTO())
	}
	h.Observe(StateSnapshot{Kind: StateEBSN})
}

// OnQuench implements RFC 1122 source-quench handling: collapse the
// congestion window to one segment (slow start resumes); the timer and
// estimators are untouched — which is exactly why quench fails to prevent
// the timeouts EBSN prevents.
func (st *State) OnQuench(c *Config, h Host) {
	if st.Done(c) {
		return
	}
	st.Cwnd = float64(c.MSS)
	h.Observe(StateSnapshot{Kind: StateQuench})
}
