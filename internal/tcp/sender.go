package tcp

import (
	"errors"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// Sender is a bulk-transfer TCP source: one State driven by the shared
// transitions, hosted on a sim.Timer, the packet pool, Stats and Hooks.
// Create with NewSender, then call Start; deliver inbound packets (ACKs,
// EBSNs, quenches) via Receive.
type Sender struct {
	sim   *sim.Simulator
	cfg   Config
	ids   *packet.IDGen
	out   func(*packet.Packet)
	hooks Hooks

	st    State
	timer *sim.Timer

	started  bool
	done     bool
	finishAt time.Duration

	stats Stats
	// ev is the scratch event Observe writes for Hooks.OnState.
	ev trace.Event
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
	cfg = cfg.WithDefaults()
	snd := &Sender{sim: s, cfg: cfg, ids: ids, out: out, st: cfg.NewState()}
	snd.timer = sim.NewTimer(s, func() { snd.st.OnTimeout(&snd.cfg, snd.host()) })
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
	s.st.Send(&s.cfg, s.host())
}

// Done reports whether every payload byte has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// FinishedAt reports the virtual time the last byte was acknowledged
// (meaningful only once Done).
func (s *Sender) FinishedAt() time.Duration { return s.finishAt }

// Stats returns a copy of the counters.
func (s *Sender) Stats() Stats { return s.stats }

// Cwnd reports the congestion window in bytes.
func (s *Sender) Cwnd() units.ByteSize { return units.ByteSize(s.st.Cwnd) }

// SndUna reports the oldest unacknowledged byte offset.
func (s *Sender) SndUna() int64 { return s.st.SndUna }

// SndNxt reports the next byte offset to send.
func (s *Sender) SndNxt() int64 { return s.st.SndNxt }

// SndMax reports the highest byte offset ever sent plus one.
func (s *Sender) SndMax() int64 { return s.st.SndMax }

// CheckInvariants verifies the sender's internal consistency (see
// State.CheckInvariants). It is registered as a periodic simulation check
// when invariant checking is enabled.
func (s *Sender) CheckInvariants() error { return s.st.CheckInvariants(&s.cfg) }

// MakeAvailable grants the sender n more application bytes to transmit
// (streaming mode); it is a no-op once everything is available.
func (s *Sender) MakeAvailable(n units.ByteSize) {
	if n <= 0 {
		return
	}
	s.st.avail += int64(n)
	if s.st.avail > int64(s.cfg.Total) {
		s.st.avail = int64(s.cfg.Total)
	}
	if s.started {
		s.st.Send(&s.cfg, s.host())
	}
}

// Receive accepts an inbound packet from the network — TCP ACKs and the
// two control messages; other kinds are ignored — and releases it: the
// source is where reverse-path packets end.
func (s *Sender) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Ack:
		if p.CongestionMarked {
			s.st.OnECNEcho(&s.cfg, s.host())
		}
		s.st.OnAck(&s.cfg, s.host(), p.AckNo, p.SACK)
		if !s.done && s.st.Done(&s.cfg) {
			s.done = true
			s.finishAt = s.sim.Now()
		}
	case packet.EBSN:
		s.st.OnEBSN(&s.cfg, s.host())
	case packet.SourceQuench:
		s.st.OnQuench(&s.cfg, s.host())
	}
	p.Release()
}

// senderHost is the Sender as the transitions see it.
type senderHost Sender

func (s *Sender) host() Host { return (*senderHost)(s) }

func (h *senderHost) Now() time.Duration           { return h.sim.Now() }
func (h *senderHost) SetTimer(d time.Duration)     { h.timer.Set(d) }
func (h *senderHost) StopTimer()                   { h.timer.Stop() }
func (h *senderHost) TimerDeadline() time.Duration { return h.timer.Deadline() }

// Transmit builds the segment's packet, counts it and hands it to the
// network.
func (h *senderHost) Transmit(seq int64, payload units.ByteSize, retransmit bool) {
	p := h.ids.New(packet.Data)
	p.Seq = seq
	p.Payload = payload
	p.Retransmit = retransmit
	p.SentAt = h.sim.Now()
	h.stats.SegmentsSent++
	h.stats.BytesSent += p.Size()
	if retransmit {
		h.stats.RetransSegments++
		h.stats.RetransBytes += p.Size()
	}
	h.out(p)
}

// Observe keeps the counters and, for whoever installed OnState, writes
// the transition's event. Every kind that moves the window — a new ACK,
// a loss response, a quench, an ECN echo — does so exactly once, which
// is when OnCwnd fires.
func (h *senderHost) Observe(ev Transition) {
	cwndMoved := false
	switch ev.Kind {
	case StateAck:
		if ev.AckClass != AckInvalid {
			h.stats.AcksReceived++
		}
		if ev.AckClass == AckDup {
			h.stats.DupAcksReceived++
		}
		cwndMoved = ev.AckClass == AckNew
	case StateFastRetx:
		// The third duplicate ACK is reported as the retransmit it caused.
		h.stats.AcksReceived++
		h.stats.DupAcksReceived++
		h.stats.FastRetransmits++
		cwndMoved = true
	case StateTimeout:
		h.stats.Timeouts++
		cwndMoved = true
	case StateEBSN:
		h.stats.EBSNResets++
	case StateQuench:
		h.stats.Quenches++
		cwndMoved = true
	case StateECN:
		h.stats.ECNResponses++
		cwndMoved = true
	case StateSACKSkip:
		h.stats.SACKSkippedSegments++
		return
	}
	if cwndMoved && h.hooks.OnCwnd != nil {
		h.hooks.OnCwnd(units.ByteSize(h.st.Cwnd), units.ByteSize(h.st.Ssthresh))
	}
	if h.hooks.OnState != nil {
		h.st.Snapshot(&h.cfg, ev, h.timer.Deadline(), &h.ev)
		h.hooks.OnState(&h.ev)
	}
}
