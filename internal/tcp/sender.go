package tcp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Sender is a bulk-transfer TCP source. Create with NewSender, then call
// Start; deliver inbound packets (ACKs, EBSNs, quenches) via Receive.
type Sender struct {
	sim   *sim.Simulator
	cfg   Config
	ids   *packet.IDGen
	out   func(*packet.Packet)
	hooks Hooks

	// Sequence state (byte offsets into the transfer).
	sndUna int64 // oldest unacknowledged byte
	sndNxt int64 // next byte to send
	sndMax int64 // highest byte ever sent + 1 (retransmit detector)
	avail  int64 // bytes the application has produced (== Total unless streaming)
	// ecnGuard limits ECN window halving to once per flight.
	ecnGuard int64

	// Congestion control, in bytes. cwnd is fractional because congestion
	// avoidance adds MSS*MSS/cwnd per ACK.
	cwnd     float64
	ssthresh float64
	dupacks  int
	// inRecovery marks Reno fast recovery.
	inRecovery bool
	recover    int64 // Reno: snd_max at loss detection

	// RTT measurement: one segment timed at a time (BSD style). Timing is
	// cancelled by retransmission per Karn's algorithm.
	rto        *RTOEstimator
	timing     bool
	timedSeq   int64
	timedAtTik int

	timer *sim.Timer

	// sack tracks selectively acknowledged ranges (Config.SACK).
	sack scoreboard

	started  bool
	done     bool
	finishAt time.Duration

	stats Stats
}

// NewSender wires a sender that emits packets through out (typically the
// wired link's Send). ids must be shared across all packet creators in the
// simulation.
func NewSender(s *sim.Simulator, cfg Config, ids *packet.IDGen, out func(*packet.Packet)) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("tcp: nil output callback")
	}
	cfg = cfg.withDefaults()
	snd := &Sender{
		sim:      s,
		cfg:      cfg,
		ids:      ids,
		out:      out,
		cwnd:     float64(cfg.InitialCwnd) * float64(cfg.MSS),
		ssthresh: float64(cfg.Window),
		rto:      NewRTOEstimator(cfg.Granularity, cfg.InitialRTO, cfg.MaxRTO),
	}
	if !cfg.Streaming {
		snd.avail = int64(cfg.Total)
	}
	snd.timer = sim.NewTimer(s, snd.onTimeout)
	return snd, nil
}

// SetHooks installs observation callbacks. Must be called before Start.
func (s *Sender) SetHooks(h Hooks) { s.hooks = h }

// Start opens the transfer (sends the first window).
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
}

// Done reports whether every payload byte has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// FinishedAt reports the virtual time the last byte was acknowledged
// (meaningful only once Done).
func (s *Sender) FinishedAt() time.Duration { return s.finishAt }

// Stats returns a copy of the counters.
func (s *Sender) Stats() Stats { return s.stats }

// Cwnd reports the congestion window in bytes.
func (s *Sender) Cwnd() units.ByteSize { return units.ByteSize(s.cwnd) }

// Ssthresh reports the slow-start threshold in bytes.
func (s *Sender) Ssthresh() units.ByteSize { return units.ByteSize(s.ssthresh) }

// RTOEstimator exposes the timeout machinery (read-only use).
func (s *Sender) RTOEstimator() *RTOEstimator { return s.rto }

// SndUna reports the oldest unacknowledged byte offset.
func (s *Sender) SndUna() int64 { return s.sndUna }

// SndNxt reports the next byte offset to send.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// SndMax reports the highest byte offset ever sent plus one.
func (s *Sender) SndMax() int64 { return s.sndMax }

// CheckInvariants verifies the sender's internal consistency: the
// congestion window within its legal bounds and the sequence pointers in
// their required order. It is registered as a periodic simulation check
// when invariant checking is enabled; a violation means a protocol bug,
// not a network condition (no network behaviour, however adversarial,
// may break these).
func (s *Sender) CheckInvariants() error {
	mss := float64(s.cfg.MSS)
	adv := float64(s.cfg.Window)
	switch {
	case math.IsNaN(s.cwnd) || math.IsInf(s.cwnd, 0):
		return fmt.Errorf("cwnd is not finite: %v", s.cwnd)
	case s.cwnd < mss:
		return fmt.Errorf("cwnd %.1f below one segment (%v)", s.cwnd, s.cfg.MSS)
	case s.cwnd > 2*(adv+mss)+float64(DupAckThreshold)*mss:
		// Reno inflation can push cwnd past the advertised window by up to
		// a flight of dupacks; anything beyond twice the window plus that
		// allowance is runaway growth.
		return fmt.Errorf("cwnd %.1f beyond any legal inflation of the %v window", s.cwnd, s.cfg.Window)
	case s.ssthresh < 0:
		return fmt.Errorf("negative ssthresh %.1f", s.ssthresh)
	case s.sndUna < 0 || s.sndUna > s.sndNxt:
		return fmt.Errorf("sequence order violated: snd_una %d > snd_nxt %d", s.sndUna, s.sndNxt)
	case s.sndNxt > s.sndMax:
		return fmt.Errorf("sequence order violated: snd_nxt %d > snd_max %d", s.sndNxt, s.sndMax)
	case s.sndMax > int64(s.cfg.Total):
		return fmt.Errorf("snd_max %d beyond the %d-byte transfer", s.sndMax, s.cfg.Total)
	case s.avail > int64(s.cfg.Total):
		return fmt.Errorf("application made %d bytes available of a %d-byte transfer", s.avail, s.cfg.Total)
	default:
		return nil
	}
}

// window is the usable send window in bytes: min(cwnd, advertised).
func (s *Sender) window() int64 {
	w := int64(s.cwnd)
	if adv := int64(s.cfg.Window); adv < w {
		w = adv
	}
	if w < int64(s.cfg.MSS) {
		w = int64(s.cfg.MSS)
	}
	return w
}

// MakeAvailable grants the sender n more application bytes to transmit
// (streaming mode); it is a no-op once everything is available.
func (s *Sender) MakeAvailable(n units.ByteSize) {
	if n <= 0 {
		return
	}
	s.avail += int64(n)
	if s.avail > int64(s.cfg.Total) {
		s.avail = int64(s.cfg.Total)
	}
	if s.started {
		s.trySend()
	}
}

// Available reports how many application bytes the sender may transmit.
func (s *Sender) Available() units.ByteSize { return units.ByteSize(s.avail) }

// trySend transmits as many segments as the window allows.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	total := int64(s.cfg.Total)
	for s.sndNxt < total {
		limit := s.sndUna + s.window()
		space := limit - s.sndNxt
		remaining := total - s.sndNxt
		produced := s.avail - s.sndNxt
		seglen := int64(s.cfg.MSS)
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
		if s.cfg.SACK && s.sndNxt < s.sndMax && s.sack.covered(s.sndNxt, s.sndNxt+seglen) {
			s.stats.SACKSkippedSegments++
			s.sndNxt += seglen
			continue
		}
		s.emit(s.sndNxt, units.ByteSize(seglen))
		s.sndNxt += seglen
		if s.sndNxt > s.sndMax {
			s.sndMax = s.sndNxt
		}
	}
}

// emit sends one segment starting at seq.
func (s *Sender) emit(seq int64, payload units.ByteSize) {
	retx := seq < s.sndMax
	p := s.ids.New(packet.Data)
	p.Seq = seq
	p.Payload = payload
	p.Retransmit = retx
	p.SentAt = s.sim.Now()
	s.stats.SegmentsSent++
	s.stats.BytesSent += p.Size()
	if retx {
		s.stats.RetransSegments++
		s.stats.RetransBytes += p.Size()
	}
	// Time one fresh segment per window (Karn: never a retransmission).
	if !s.timing && !retx {
		s.timing = true
		s.timedSeq = seq
		s.timedAtTik = s.rto.Ticks(s.sim.Now())
	}
	if !s.timer.Pending() {
		s.timer.Set(s.rto.RTO())
	}
	if s.hooks.OnSend != nil {
		s.hooks.OnSend(seq, payload, retx)
	}
	s.emitState(StateSnapshot{Kind: StateSend, Seq: seq, Payload: payload, Retransmit: retx})
	s.out(p)
}

// emitState fills the common fields of a post-transition snapshot and
// hands it to the observation hook. Sequence pointers already advanced by
// the caller are reported as-is; the snapshot must be taken after every
// state mutation of the transition (including timer re-arms).
func (s *Sender) emitState(st StateSnapshot) {
	if s.hooks.OnState == nil {
		return
	}
	st.Cwnd = units.ByteSize(s.cwnd)
	st.Ssthresh = units.ByteSize(s.ssthresh)
	st.SndUna = s.sndUna
	st.SndNxt = s.sndNxt
	st.SndMax = s.sndMax
	st.RTO = s.rto.RTO()
	st.TimerDeadline = s.timer.Deadline()
	st.BackoffShift = s.rto.BackoffShift()
	st.DupAcks = s.dupacks
	s.hooks.OnState(st)
}

// emitAckState snapshots the outcome of processing one cumulative ACK.
func (s *Sender) emitAckState(ackNo int64, class AckClass) {
	s.emitState(StateSnapshot{Kind: StateAck, AckNo: ackNo, AckClass: class})
}

// Receive accepts an inbound packet from the network — TCP ACKs and the
// two control messages; other kinds are ignored — and releases it: the
// source is where reverse-path packets end.
func (s *Sender) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Ack:
		if p.CongestionMarked {
			s.onECNEcho()
		}
		if s.cfg.SACK && len(p.SACK) > 0 {
			s.sack.record(p.SACK)
		}
		s.onAck(p.AckNo)
	case packet.EBSN:
		s.onEBSN()
	case packet.SourceQuench:
		s.onQuench()
	}
	p.Release()
}

// onECNEcho is the [Floyd 94] ECN response: halve the window as a
// congestion signal, at most once per window of data (repeated echoes
// within one flight describe the same congestion event).
func (s *Sender) onECNEcho() {
	if s.done || s.sndUna < s.ecnGuard {
		return
	}
	s.stats.ECNResponses++
	s.halveSsthresh()
	s.cwnd = s.ssthresh
	s.notifyCwnd()
	s.ecnGuard = s.sndNxt
	s.emitState(StateSnapshot{Kind: StateECN})
}

// onAck processes a cumulative acknowledgment.
func (s *Sender) onAck(ackNo int64) {
	if s.done {
		return
	}
	if ackNo > s.sndMax {
		// Acknowledgment for data never sent (corrupted or forged);
		// accepting it would desynchronize the window. RFC 793 drops it.
		s.emitAckState(ackNo, AckInvalid)
		return
	}
	s.stats.AcksReceived++
	switch {
	case ackNo > s.sndUna:
		s.onNewAck(ackNo)
	case ackNo == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck()
	default:
		// Old ACK (below snd_una): ignore.
		s.emitAckState(ackNo, AckOld)
	}
}

func (s *Sender) onNewAck(ackNo int64) {
	// RTT sample if the timed segment is covered and was never
	// retransmitted (timing is cancelled on retransmission).
	if s.timing && ackNo > s.timedSeq {
		s.rto.Sample(s.rto.Ticks(s.sim.Now()) - s.timedAtTik)
		s.timing = false
	}

	if s.inRecovery { // Reno / NewReno
		switch {
		case ackNo >= s.recover:
			// Full recovery: deflate to ssthresh and exit.
			s.cwnd = s.ssthresh
			s.inRecovery = false
			s.notifyCwnd()
		case s.cfg.Variant.PartialAckRetransmit():
			// Partial ACK: the next segment after ackNo is also missing;
			// retransmit it immediately and stay in recovery, deflating
			// by the amount acknowledged.
			s.cwnd -= float64(ackNo - s.sndUna)
			if s.cwnd < float64(s.cfg.MSS) {
				s.cwnd = float64(s.cfg.MSS)
			}
			s.notifyCwnd()
			s.dupacks = 0
			s.sndUna = ackNo
			if s.sndNxt < s.sndUna {
				s.sndNxt = s.sndUna
			}
			s.retransmitFirst()
			s.emitAckState(ackNo, AckNew)
			s.trySend()
			return
		default:
			// Plain Reno exits recovery on any new ACK.
			s.cwnd = s.ssthresh
			s.inRecovery = false
			s.notifyCwnd()
		}
	} else {
		s.growCwnd()
	}

	s.dupacks = 0
	s.sndUna = ackNo
	if s.sndNxt < s.sndUna {
		s.sndNxt = s.sndUna
	}
	if s.cfg.SACK {
		s.sack.advance(s.sndUna)
	}

	if s.sndUna >= int64(s.cfg.Total) {
		s.complete()
		s.emitAckState(ackNo, AckNew)
		return
	}
	// Restart the timer for the remaining outstanding data; with nothing
	// in flight the timer must stop (an idle connection has nothing to
	// retransmit — a spurious expiry would collapse the window).
	if s.sndNxt > s.sndUna {
		s.timer.Set(s.rto.RTO())
	} else {
		s.timer.Stop()
	}
	s.emitAckState(ackNo, AckNew)
	s.trySend()
}

// growCwnd applies slow start or congestion avoidance for one new ACK.
func (s *Sender) growCwnd() {
	mss := float64(s.cfg.MSS)
	if s.cwnd < s.ssthresh {
		s.cwnd += mss
	} else {
		s.cwnd += mss * mss / s.cwnd
	}
	// cwnd is not allowed to grow beyond what the advertised window can
	// use, plus one segment of headroom (keeps the float bounded).
	if cap := float64(s.cfg.Window) + mss; s.cwnd > cap {
		s.cwnd = cap
	}
	s.notifyCwnd()
}

// notifyCwnd reports window changes to the observation hook.
func (s *Sender) notifyCwnd() {
	if s.hooks.OnCwnd != nil {
		s.hooks.OnCwnd(units.ByteSize(s.cwnd), units.ByteSize(s.ssthresh))
	}
}

func (s *Sender) onDupAck() {
	s.stats.DupAcksReceived++
	s.dupacks++
	if s.inRecovery {
		// Reno: inflate the window during recovery.
		s.cwnd += float64(s.cfg.MSS)
		s.emitAckState(s.sndUna, AckDup)
		s.trySend()
		return
	}
	if s.dupacks != DupAckThreshold {
		s.emitAckState(s.sndUna, AckDup)
		return
	}
	s.stats.FastRetransmits++
	if s.hooks.OnFastRetransmit != nil {
		s.hooks.OnFastRetransmit(s.sndUna)
	}
	s.halveSsthresh()
	s.timing = false // Karn: the loss invalidates the in-flight sample
	mss := float64(s.cfg.MSS)
	switch {
	case s.cfg.Variant.FastRecovery():
		s.inRecovery = true
		s.recover = s.sndMax
		s.retransmitFirst()
		s.cwnd = s.ssthresh + DupAckThreshold*mss
		s.notifyCwnd()
		s.emitState(StateSnapshot{Kind: StateFastRetx, Seq: s.sndUna})
	default: // Tahoe: collapse and slow-start from snd_una (go-back-N).
		s.cwnd = mss
		s.notifyCwnd()
		s.sndNxt = s.sndUna
		s.dupacks = 0
		s.timer.Set(s.rto.RTO())
		s.emitState(StateSnapshot{Kind: StateFastRetx, Seq: s.sndUna})
		s.trySend()
	}
}

// halveSsthresh sets ssthresh to half the effective window, floored at two
// segments, as in [Jacobson 88].
func (s *Sender) halveSsthresh() {
	flight := s.cwnd
	if adv := float64(s.cfg.Window); adv < flight {
		flight = adv
	}
	half := flight / 2
	if min := 2 * float64(s.cfg.MSS); half < min {
		half = min
	}
	s.ssthresh = half
}

// retransmitFirst re-sends the segment at snd_una, extending snd_nxt over
// it if a rewind had left the hole uncovered.
func (s *Sender) retransmitFirst() {
	total := int64(s.cfg.Total)
	seglen := int64(s.cfg.MSS)
	if remaining := total - s.sndUna; remaining < seglen {
		seglen = remaining
	}
	if seglen <= 0 {
		return
	}
	s.emit(s.sndUna, units.ByteSize(seglen))
	// The retransmitted hole is outstanding data: snd_nxt must cover it,
	// or the connection looks idle (timer armed with snd_nxt == snd_una)
	// and a lost retransmission would never be retried. Reachable when a
	// partial ACK jumps past a timeout-rewound snd_nxt via data the
	// receiver buffered before the loss.
	if s.sndNxt < s.sndUna+seglen {
		s.sndNxt = s.sndUna + seglen
	}
	s.timer.Set(s.rto.RTO())
}

// onTimeout is the retransmission-timer expiry: Tahoe congestion response
// plus Karn backoff.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	if s.sndNxt <= s.sndUna {
		// Nothing outstanding (idle interactive connection): there is
		// nothing to retransmit and no congestion evidence; a stale
		// timer expiry must not collapse the window.
		return
	}
	s.stats.Timeouts++
	if s.hooks.OnTimeout != nil {
		s.hooks.OnTimeout(s.sndUna)
	}
	s.halveSsthresh()
	s.cwnd = float64(s.cfg.MSS)
	s.notifyCwnd()
	s.rto.Backoff()
	s.timing = false
	s.dupacks = 0
	s.inRecovery = false
	// Go-back-N: rewind and retransmit from the oldest unacked byte.
	s.sndNxt = s.sndUna
	s.timer.Set(s.rto.RTO())
	s.emitState(StateSnapshot{Kind: StateTimeout, Seq: s.sndUna})
	s.trySend()
}

// onEBSN implements the paper's response: replace any pending timer with a
// fresh one holding the *current* timeout value. RTT estimates, backoff,
// and the congestion window are untouched.
func (s *Sender) onEBSN() {
	if s.done {
		return
	}
	s.stats.EBSNResets++
	if s.hooks.OnEBSN != nil {
		s.hooks.OnEBSN()
	}
	if s.sndNxt > s.sndUna { // only while data is outstanding
		s.timer.Set(s.rto.RTO())
	}
	s.emitState(StateSnapshot{Kind: StateEBSN})
}

// onQuench implements RFC 1122 source-quench handling: collapse the
// congestion window to one segment (slow start resumes); the timer and
// estimators are untouched — which is exactly why quench fails to prevent
// the timeouts EBSN prevents.
func (s *Sender) onQuench() {
	if s.done {
		return
	}
	s.stats.Quenches++
	s.cwnd = float64(s.cfg.MSS)
	s.notifyCwnd()
	s.emitState(StateSnapshot{Kind: StateQuench})
}

// complete marks the transfer finished.
func (s *Sender) complete() {
	s.done = true
	s.finishAt = s.sim.Now()
	s.timer.Stop()
	if s.hooks.OnComplete != nil {
		s.hooks.OnComplete(s.finishAt)
	}
}
