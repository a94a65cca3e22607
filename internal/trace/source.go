package trace

import (
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// Sink receives every event of a Source together with its position in
// the stream. The event is the source's own scratch copy: it is valid for
// the duration of the call only and must not be modified; a sink that
// keeps it copies it.
type Sink func(idx int, e *Event)

// Source is one connection's event stream. Its hook adapters (Hooks,
// BSHooks, MobileHook) turn sender, base-station and mobile-host
// instrumentation into events — each built once, stamped with the clock
// and numbered — and hand them to the subscribed sinks in subscription
// order. The source itself retains nothing: what is kept is up to the
// sinks (Store keeps everything, the conformance oracle keeps a shadow of
// the last two sender events), and an event's index is its position in
// the stream whoever is listening.
type Source struct {
	mss   int64
	now   func() time.Duration
	sinks []Sink
	// n counts the events emitted so far — the next event's index.
	n int
	// ev is the event being delivered. Sinks see a pointer to it, so no
	// event is ever heap-allocated on its way through.
	ev Event
}

// NewSource returns a source for a connection with the given MSS (used to
// convert byte offsets into packet numbers); now must report the
// simulation clock.
func NewSource(mss units.ByteSize, now func() time.Duration) *Source {
	if mss <= 0 {
		mss = 1
	}
	return &Source{mss: int64(mss), now: now}
}

// Subscribe adds a sink; it sees every event emitted from here on.
func (s *Source) Subscribe(sink Sink) { s.sinks = append(s.sinks, sink) }

// Store subscribes a new Trace that retains every event from here on, and
// returns it.
func (s *Source) Store() *Trace {
	tr := New(units.ByteSize(s.mss))
	s.Subscribe(func(_ int, e *Event) { tr.events = append(tr.events, *e) })
	return tr
}

// emit stamps the scratch event and delivers it.
func (s *Source) emit() {
	s.ev.At = s.now()
	s.ev.PacketNo = s.ev.Seq / s.mss
	idx := s.n
	s.n++
	for _, sink := range s.sinks {
		sink(idx, &s.ev)
	}
}

// Hooks returns sender hooks that feed this source. The state-snapshot
// hook drives everything: legacy kinds (Send/Timeout/...) are synthesized
// from snapshots so each sender transition emits exactly one event,
// enriched with the conformance fields.
func (s *Source) Hooks() tcp.Hooks {
	return tcp.Hooks{OnState: s.onState}
}

// onState converts one sender state snapshot into an event.
func (s *Source) onState(st tcp.StateSnapshot) {
	var kind EventKind
	switch st.Kind {
	case tcp.StateSend:
		kind = Send
		if st.Retransmit {
			kind = Retransmit
		}
	case tcp.StateAck:
		kind = AckIn
	case tcp.StateTimeout:
		kind = Timeout
	case tcp.StateFastRetx:
		kind = FastRetx
	case tcp.StateEBSN:
		kind = EBSNReset
	case tcp.StateQuench:
		kind = QuenchIn
	case tcp.StateECN:
		kind = ECNEcho
	default:
		return
	}
	s.ev = Event{
		Kind:     kind,
		Seq:      st.Seq,
		Payload:  int64(st.Payload),
		Ack:      st.AckNo,
		AckClass: int(st.AckClass),
		Cwnd:     int64(st.Cwnd),
		Ssthresh: int64(st.Ssthresh),
		SndUna:   st.SndUna,
		SndNxt:   st.SndNxt,
		SndMax:   st.SndMax,
		RTO:      st.RTO,
		Deadline: st.TimerDeadline,
		Shift:    st.BackoffShift,
		DupAcks:  st.DupAcks,
	}
	s.emit()
}

// BSHooks returns base-station hooks that feed this source, interleaving
// ARQ, notification and snoop events with the sender's in one stream.
func (s *Source) BSHooks() bs.Hooks {
	return bs.Hooks{
		OnARQAttempt: func(unit, pkt uint64, attempt int) {
			s.ev = Event{Kind: ARQAttempt, Unit: unit, Pkt: pkt, Attempt: attempt}
			s.emit()
		},
		OnARQFailure: func(unit, pkt uint64, attempt int) {
			s.ev = Event{Kind: ARQFailure, Unit: unit, Pkt: pkt, Attempt: attempt}
			s.emit()
		},
		OnARQAck: func(unit, pkt uint64) {
			s.ev = Event{Kind: ARQAck, Unit: unit, Pkt: pkt}
			s.emit()
		},
		OnARQDiscard: func(pkt uint64) {
			s.ev = Event{Kind: ARQDiscard, Pkt: pkt}
			s.emit()
		},
		OnNotify: func(kind packet.Kind, conn int) {
			k := EBSNSent
			if kind == packet.SourceQuench {
				k = QuenchSent
			}
			s.ev = Event{Kind: k}
			s.emit()
		},
		OnSnoopAdmit: func(seq int64) {
			s.ev = Event{Kind: SnoopAdmit, Seq: seq}
			s.emit()
		},
		OnSnoopRetx: func(seq int64, attempt int) {
			s.ev = Event{Kind: SnoopRetx, Seq: seq, Attempt: attempt}
			s.emit()
		},
		OnSnoopSuppress: func(ackNo int64) {
			s.ev = Event{Kind: SnoopSuppress, Ack: ackNo}
			s.emit()
		},
		OnSnoopEvict: func(seq int64) {
			s.ev = Event{Kind: SnoopEvict, Seq: seq}
			s.emit()
		},
	}
}

// MobileHook returns a sequenced-delivery observer (node.Mobile's
// SetSequencedHook) that emits MHDeliver events carrying the link
// sequence number.
func (s *Source) MobileHook() func(*packet.Packet) {
	return func(p *packet.Packet) {
		s.ev = Event{Kind: MHDeliver, Seq: p.Seq, Unit: uint64(p.LinkSeq)}
		s.emit()
	}
}
