package trace

import (
	"wtcp/internal/bs"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Checker judges a Source's events as they are emitted
// (internal/oracle's Checker is the implementation). Observe sees each
// event with its position in the stream; the event is a scratch event,
// valid for the duration of the call only and not to be modified. A
// non-nil error is the event's violation: the source halts the run with
// it at that event.
type Checker interface {
	Observe(idx int, e *Event) error
}

// Source is one connection's event stream. Each sender, base-station and
// mobile-host event is written once, in place, into a scratch event of
// its family — the sender host's own (see OnState), or the source's (see
// BSHooks and MobileHook) — then stamped with the clock and handed to the
// store, if one is attached, then to the checker, if one is armed. The
// source itself retains nothing: what is kept is up to the store (which
// keeps everything) and the checker (which keeps a shadow of the last two
// sender events), and an event's index is its position in the stream
// whoever is listening.
type Source struct {
	mss   units.ByteSize
	clock *sim.Simulator
	store *Trace
	check Checker
	// name is the invariant check a violation halts the run as.
	name string
	// n counts the events emitted so far — the next event's index.
	n int
	// One scratch event per base-station and mobile-host family. A hook
	// writes only the fields its family owns; every other field of its
	// scratch stays zero, so no event is cleared on its way through and
	// none is heap-allocated.
	arq, notify, snoop, mobile Event
}

// NewSource returns a source for a connection with the given MSS (the
// store's unit for packet numbers) whose events are stamped with clock's
// time.
func NewSource(mss units.ByteSize, clock *sim.Simulator) *Source {
	return &Source{mss: mss, clock: clock}
}

// Store attaches a new Trace that retains every event from here on, and
// returns it.
func (s *Source) Store() *Trace {
	s.store = New(s.mss)
	return s.store
}

// Check arms c on the stream from here on. Its first violation halts the
// run through the clock's failure channel as the invariant check name,
// at the violating event.
func (s *Source) Check(name string, c Checker) { s.name, s.check = name, c }

// emit stamps one scratch event and delivers it.
func (s *Source) emit(e *Event) {
	e.At = s.clock.Now()
	idx := s.n
	s.n++
	if s.store != nil {
		s.store.events = append(s.store.events, *e)
	}
	if s.check != nil {
		if err := s.check.Observe(idx, e); err != nil {
			s.clock.Fail(s.name, err)
		}
	}
}

// OnState is the sender's state hook (tcp.Sender.SetStateHook): e is the
// sender host's own scratch event, written in place by tcp.State.Snapshot
// — the sender family's scratch. The source stamps it and emits it.
func (s *Source) OnState(e *Event) { s.emit(e) }

// arqEvent writes one ARQ event (the Unit/Pkt/Attempt family).
func (s *Source) arqEvent(kind EventKind, unit, pkt uint64, attempt int) {
	e := &s.arq
	e.Kind, e.Unit, e.Pkt, e.Attempt = kind, unit, pkt, attempt
	s.emit(e)
}

// snoopEvent writes one snoop-agent event (the Seq/Attempt/Ack family).
func (s *Source) snoopEvent(kind EventKind, seq int64, attempt int, ack int64) {
	e := &s.snoop
	e.Kind, e.Seq, e.Attempt, e.Ack = kind, seq, attempt, ack
	s.emit(e)
}

// BSHooks returns base-station hooks that feed this source, interleaving
// ARQ, notification and snoop events with the sender's in one stream.
func (s *Source) BSHooks() bs.Hooks {
	return bs.Hooks{
		OnARQAttempt: func(unit, pkt uint64, attempt int) { s.arqEvent(ARQAttempt, unit, pkt, attempt) },
		OnARQFailure: func(unit, pkt uint64, attempt int) { s.arqEvent(ARQFailure, unit, pkt, attempt) },
		OnARQAck:     func(unit, pkt uint64) { s.arqEvent(ARQAck, unit, pkt, 0) },
		OnARQDiscard: func(pkt uint64) { s.arqEvent(ARQDiscard, 0, pkt, 0) },
		OnNotify: func(kind packet.Kind, conn int) {
			s.notify.Kind = EBSNSent
			if kind == packet.SourceQuench {
				s.notify.Kind = QuenchSent
			}
			s.emit(&s.notify)
		},
		OnSnoopAdmit:    func(seq int64) { s.snoopEvent(SnoopAdmit, seq, 0, 0) },
		OnSnoopRetx:     func(seq int64, attempt int) { s.snoopEvent(SnoopRetx, seq, attempt, 0) },
		OnSnoopSuppress: func(ackNo int64) { s.snoopEvent(SnoopSuppress, 0, 0, ackNo) },
		OnSnoopEvict:    func(seq int64) { s.snoopEvent(SnoopEvict, seq, 0, 0) },
	}
}

// MobileHook returns a sequenced-delivery observer (node.Mobile's
// SetSequencedHook) that emits MHDeliver events carrying the link
// sequence number.
func (s *Source) MobileHook() func(*packet.Packet) {
	return func(p *packet.Packet) {
		e := &s.mobile
		e.Kind, e.Seq, e.Unit = MHDeliver, p.Seq, uint64(p.LinkSeq)
		s.emit(e)
	}
}
