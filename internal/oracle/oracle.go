// Package oracle is a streaming protocol-conformance checker for the
// simulator's event stream. Armed on a trace.Source as its
// trace.Checker, it is called on every event and validates, while a run
// executes, that the observed behaviour obeys the paper's protocol rules:
//
//   - the TCP-Tahoe sender state machine: slow-start and congestion-
//     avoidance window growth, the loss responses (collapse to one
//     segment, ssthresh halving, go-back-N rewind), RTO doubling with
//     Karn's backoff-reset rule, and rejection of ACKs for unsent data;
//   - the base station's ARQ semantics: bounded retransmission attempts,
//     consistent attempt counting, no delivery after discard, and no
//     reordering introduced by local recovery;
//   - EBSN semantics: the base station notifies only after a failed
//     link-level attempt, and the source restarts — never extends, never
//     backs off — its retransmission timer with the current RTO.
//
// The checker is a shadow-state machine: it re-synchronizes from every
// event (the events carry post-transition state), so rules compare one
// event against the previous one rather than accumulating drift. It
// retains no event beyond that shadow and allocates nothing while the
// stream conforms; the shadow sets it does keep (outstanding ARQ units,
// the snoop cache, discarded packets) are bounded by the window, not the
// transfer. A rule breach produces a *Violation naming the rule and the
// event index; the first violation is latched and, returned to the
// source, halts the simulation at that event through sim.Fail.
package oracle

import (
	"fmt"
	"time"

	"wtcp/internal/queue"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// Config parameterizes the checker with the run's protocol constants.
type Config struct {
	// Variant selects the sender's conformance profile: the structural
	// rules (ACK validity, timer discipline, ARQ/EBSN/Snoop semantics)
	// apply to every variant, while the congestion-response rules come
	// from the variant's own profile — collapse-and-slow-start for
	// Tahoe, fast-recovery inflation/deflation for the Reno family
	// (Reno, NewReno, SACK). Zero defaults to Tahoe.
	Variant tcp.Variant
	// MSS and Window are the sender's segment size and advertised window.
	MSS    units.ByteSize
	Window units.ByteSize
	// RTmax is the ARQ retransmission cap (attempts allowed = RTmax+1);
	// zero disables the attempt-cap rule.
	RTmax int
	// SnoopMaxRetx is the snoop agent's local retransmission cap per
	// cached copy; zero disables the snoop attempt-cap rule (the other
	// snoop rules still apply whenever snoop events appear).
	SnoopMaxRetx int
	// TrackNotifications enables the notification-counting rules (a
	// source timer reset needs a prior EBSN on the wire; an EBSN on the
	// wire needs a prior link-level failure). Valid only for
	// single-connection runs with base-station hooks attached.
	TrackNotifications bool
}

// byteTol absorbs the int64 truncation of the float congestion window in
// trace events; timeTol absorbs timestamp normalization (e.g.
// microsecond-rounded golden traces).
const (
	byteTol = 8
	timeTol = 2 * time.Microsecond
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Variant == 0 {
		c.Variant = tcp.Tahoe
	}
	return c
}

// Violation reports one conformance breach: which rule, at which event.
type Violation struct {
	// Rule is the stable rule identifier, e.g. "tahoe/cwnd-growth".
	Rule string
	// Index is the event's position in the trace stream.
	Index int
	// Event is the offending event.
	Event trace.Event
	// Detail explains the breach in terms of observed vs expected values.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("oracle: rule %s violated at event %d (%v %s): %s",
		v.Rule, v.Index, v.Event.At, v.Event.Kind, v.Detail)
}

// Checker validates a trace event stream against Config's protocol rules.
type Checker struct {
	cfg Config
	// profile holds the variant's congestion rules (see profile.go).
	profile profile

	// last shadows the most recent sender-side event; haveLast guards the
	// first event of a stream. last2 is the event before it — the
	// pre-transition baseline for ACK transitions that span two events
	// (the Reno family's retransmit-then-ACK pairs). A shadow holds only
	// the fields the rules read, so resync copies nine words, not events.
	last      shadow
	haveLast  bool
	last2     shadow
	haveLast2 bool

	// inRecovery and recoverSeq shadow the Reno family's fast-recovery
	// episode: entered at FastRetx (recoverSeq = snd_max at loss
	// detection), left on a covering ACK or any timeout.
	inRecovery bool
	recoverSeq int64

	// retx tracks byte ranges the source has retransmitted and not yet
	// had acknowledged — the evidence base for Karn's rule: the backoff
	// may only reset when an ACK covers at least one fresh byte.
	retx intervalSet

	// Notification bookkeeping (TrackNotifications).
	ebsnSent, ebsnResets int
	quenchSent, quenchIn int
	arqFailures          int

	// ARQ shadow: the units in flight, by unit, and the packets withdrawn
	// after RTmax, by packet. A discarded packet maps to the sender's
	// snd_max at the discard: once snd_una reaches it the packet's bytes
	// have been delivered by an end-to-end retransmission and the entry is
	// dropped. Both are key-ordered tables (queue.Table): unit and packet
	// ids are issued in increasing order, and a few dozen entries at most
	// are held.
	units     queue.Table[uint64, arqUnit]
	discarded queue.Table[uint64, int64]

	// lastLinkSeq enforces strictly-increasing sequenced delivery at the
	// mobile host.
	lastLinkSeq uint64

	// snoopCache shadows the snoop agent's segment cache, keyed by seq.
	// The agent frees entries when a new ACK passes it, which is not
	// traced; pruneShadows drops them once the source's own ACKs prove
	// it happened. snoopSweepAt is the shadow size that triggers the
	// next sweep.
	snoopCache   queue.Table[int64, snoopSeg]
	snoopSweepAt int

	// idx and cur are the event under observation, for fail.
	idx int
	cur *trace.Event

	first *Violation
}

// shadow is what the rules read of a past sender event: its kind and
// segment, the congestion state, the sequence pointers (post-advance for
// a transmission, see resync) and the timer's value and backoff.
type shadow struct {
	Kind                   trace.EventKind
	Seq                    int64
	Cwnd, Ssthresh         int64
	SndUna, SndNxt, SndMax int64
	RTO                    time.Duration
	Shift                  int
}

// arqUnit shadows one link unit in flight: its attempt count and the
// network packet that owns it.
type arqUnit struct {
	attempt int
	pkt     uint64
}

// snoopSeg shadows one cached copy: its local retransmission count, and
// the sender's snd_max when the copy was admitted. Every byte from sentTo
// up is first sent after the admission, so once it is acknowledged at the
// source the ACK that covered it has passed the agent since — as a new
// ACK above this segment, which frees the copy.
type snoopSeg struct {
	retx   int
	sentTo int64
}

// snoopSweepFloor is the smallest snoop shadow worth sweeping.
const snoopSweepFloor = 32

// New returns a checker for one run.
func New(cfg Config) *Checker {
	cfg = cfg.withDefaults()
	c := &Checker{
		cfg:          cfg,
		profile:      profileFor(cfg.Variant),
		snoopSweepAt: snoopSweepFloor,
	}
	return c
}

// Check replays a complete event sequence and returns the first
// violation, or nil if the whole stream conforms. It runs the rules a
// live run's checker runs, on the same events.
func Check(cfg Config, events []trace.Event) *Violation {
	c := New(cfg)
	for i := range events {
		if c.Observe(i, &events[i]) != nil {
			break
		}
	}
	return c.first
}

// Observe feeds one event with its position in the stream (the
// trace.Checker a Source calls): it returns the violation this event
// caused, a *Violation, or nil. The event is read during the call only
// and never modified. The first violation is also latched for First.
// State keeps re-synchronizing afterwards, so observing past a violation
// reports further independent breaches rather than cascading noise.
func (c *Checker) Observe(idx int, e *trace.Event) error {
	c.idx, c.cur = idx, e
	switch e.Kind {
	case trace.Send, trace.Retransmit, trace.AckIn, trace.Timeout, trace.FastRetx,
		trace.EBSNReset, trace.QuenchIn, trace.ECNEcho:
		// The TCP-side rules: sequence order first, then the
		// transition's own.
		var v *Violation
		switch {
		case e.SndUna < 0 || e.SndUna > e.SndNxt || e.SndNxt > e.SndMax:
			v = c.fail("tcp/sequence-order",
				"snd_una=%d snd_nxt=%d snd_max=%d out of order", e.SndUna, e.SndNxt, e.SndMax)
		case e.Kind == trace.Send || e.Kind == trace.Retransmit:
			v = c.checkSend(e)
		case e.Kind == trace.AckIn:
			v = c.checkAck(e)
		case e.Kind == trace.Timeout:
			v = c.checkTimeout(e)
		case e.Kind == trace.FastRetx:
			v = c.profile.fastRetx(c, e, &c.last)
		case e.Kind == trace.EBSNReset:
			v = c.checkEBSNReset(e)
		case e.Kind == trace.QuenchIn:
			v = c.checkQuench(e)
		default:
			v = c.checkECN(e)
		}
		c.resync(e)
		if v != nil {
			return v
		}
		return nil
	case trace.ARQAttempt:
		if v := c.observeARQAttempt(e); v != nil {
			return v
		}
		return nil
	case trace.ARQFailure:
		c.arqFailures++
		if i := c.units.Find(e.Unit); i >= 0 && e.Attempt != c.units[i].Val.attempt {
			return c.fail("arq/failure-mismatch",
				"failure reports attempt %d, unit %d is on attempt %d", e.Attempt, e.Unit, c.units[i].Val.attempt)
		}
		return nil
	case trace.ARQAck:
		if i := c.units.Find(e.Unit); i >= 0 {
			c.units.Delete(i)
		}
		return nil
	case trace.ARQDiscard:
		c.discarded.Put(e.Pkt, c.last.SndMax)
		c.units.DeleteFunc(func(_ uint64, u arqUnit) bool { return u.pkt == e.Pkt })
		return nil
	case trace.EBSNSent:
		c.ebsnSent++
		if c.cfg.TrackNotifications && c.ebsnSent > c.arqFailures {
			return c.fail("ebsn/sent-without-failure",
				"%d EBSNs sent but only %d link-level failures observed", c.ebsnSent, c.arqFailures)
		}
		return nil
	case trace.QuenchSent:
		c.quenchSent++
		if c.cfg.TrackNotifications && c.quenchSent > c.arqFailures {
			return c.fail("quench/sent-without-failure",
				"%d quenches sent but only %d link-level failures observed", c.quenchSent, c.arqFailures)
		}
		return nil
	case trace.MHDeliver:
		if e.Unit <= c.lastLinkSeq {
			return c.fail("arq/reorder",
				"sequenced unit %d delivered after unit %d", e.Unit, c.lastLinkSeq)
		}
		c.lastLinkSeq = e.Unit
		return nil
	case trace.SnoopAdmit:
		c.snoopCache.Put(e.Seq, snoopSeg{sentTo: c.last.SndMax})
		return nil
	case trace.SnoopRetx:
		i := c.snoopCache.Find(e.Seq)
		if i < 0 {
			return c.fail("snoop/retx-uncached",
				"local retransmission of seq %d with no cached copy", e.Seq)
		}
		seg := &c.snoopCache[i].Val
		if c.cfg.SnoopMaxRetx > 0 && e.Attempt > c.cfg.SnoopMaxRetx {
			return c.fail("snoop/retx-cap",
				"local retransmission attempt %d of seq %d exceeds the cap of %d",
				e.Attempt, e.Seq, c.cfg.SnoopMaxRetx)
		}
		if e.Attempt != seg.retx+1 {
			return c.fail("snoop/retx-order",
				"seq %d jumped from local attempt %d to %d", e.Seq, seg.retx, e.Attempt)
		}
		seg.retx = e.Attempt
		return nil
	case trace.SnoopSuppress:
		// Suppression may only absorb a duplicate the agent can repair
		// locally: the ACK must not be one the sender has already moved
		// past, and the segment at it must be cached — otherwise the base
		// station is hiding acknowledgment state the source genuinely
		// needs (the no-hidden-timeout rule). The stale-ACK rule goes
		// first: the shadow may already have pruned a segment below
		// snd_una.
		if c.haveLast && e.Ack < c.last.SndUna {
			return c.fail("snoop/suppress-only-dupacks",
				"suppressed ACK %d below the sender's snd_una %d", e.Ack, c.last.SndUna)
		}
		if c.snoopCache.Find(e.Ack) < 0 {
			return c.fail("snoop/suppress-needs-cache",
				"suppressed duplicate ACK %d but the segment at it is not cached", e.Ack)
		}
		return nil
	case trace.SnoopEvict:
		i := c.snoopCache.Find(e.Seq)
		if i < 0 {
			return c.fail("snoop/evict-uncached",
				"evicted seq %d with no cached copy", e.Seq)
		}
		c.snoopCache.Delete(i)
		return nil
	default:
		return nil
	}
}

// fail builds the violation for the event under observation and latches
// the first for First. Only a broken rule calls it, so a conforming stream
// never formats a string or copies an event to the heap.
func (c *Checker) fail(rule, format string, args ...any) *Violation {
	v := &Violation{Rule: rule, Index: c.idx, Event: *c.cur, Detail: fmt.Sprintf(format, args...)}
	if c.first == nil {
		c.first = v
	}
	return v
}

// observeARQAttempt checks the attempt-counting discipline of one link
// transmission.
func (c *Checker) observeARQAttempt(e *trace.Event) *Violation {
	if c.cfg.RTmax > 0 && e.Attempt > c.cfg.RTmax+1 {
		return c.fail("arq/attempt-cap",
			"attempt %d exceeds RTmax=%d (max %d transmissions)", e.Attempt, c.cfg.RTmax, c.cfg.RTmax+1)
	}
	if gone := c.discarded.Find(e.Pkt); gone >= 0 {
		if e.Attempt > 1 {
			return c.fail("arq/attempt-after-discard",
				"unit %d retransmitted (attempt %d) for packet %d after its discard", e.Unit, e.Attempt, e.Pkt)
		}
		// A fresh first attempt also re-admits a previously discarded
		// packet (the source retransmitted it end to end).
		c.discarded.Delete(gone)
	}
	i := c.units.Find(e.Unit)
	switch {
	case i < 0 && e.Attempt != 1:
		return c.fail("arq/attempt-order",
			"unit %d appears mid-sequence at attempt %d (stale recycled timer?)", e.Unit, e.Attempt)
	case i >= 0 && e.Attempt != c.units[i].Val.attempt+1 && e.Attempt != 1:
		return c.fail("arq/attempt-order",
			"unit %d jumped from attempt %d to %d", e.Unit, c.units[i].Val.attempt, e.Attempt)
	case i >= 0:
		c.units[i].Val = arqUnit{attempt: e.Attempt, pkt: e.Pkt}
	default:
		c.units.Insert(e.Unit, arqUnit{attempt: e.Attempt, pkt: e.Pkt})
	}
	return nil
}

// resync makes sender event e the shadow state the next event is compared
// against.
func (c *Checker) resync(e *trace.Event) {
	c.last2, c.haveLast2, c.haveLast = c.last, c.haveLast, true
	l := &c.last
	l.Kind, l.Seq, l.Cwnd, l.Ssthresh = e.Kind, e.Seq, e.Cwnd, e.Ssthresh
	l.SndUna, l.SndNxt, l.SndMax, l.RTO, l.Shift = e.SndUna, e.SndNxt, e.SndMax, e.RTO, e.Shift
	// Transmission snapshots are taken before the sequence pointers
	// advance; shadow the post-advance values so the next event's
	// unchanged-state checks compare against reality. A retransmission
	// with Seq below SndNxt (Reno's retransmit-first) moves nothing.
	if l.Kind == trace.Send || l.Kind == trace.Retransmit {
		if l.Seq == l.SndNxt {
			l.SndNxt = l.Seq + e.Payload
		}
		if l.SndNxt > l.SndMax {
			l.SndMax = l.SndNxt
		}
	}
}

// pruneShadows forgets what the source's new snd_una proves the base
// station has let go of, so the shadow sets follow the window and not the
// transfer. The snoop shadow is swept only once it has doubled since the
// last sweep, which keeps the cost per ACK constant.
func (c *Checker) pruneShadows(una int64) {
	c.discarded.DeleteFunc(func(_ uint64, sentTo int64) bool { return sentTo <= una })
	if len(c.snoopCache) >= c.snoopSweepAt {
		c.snoopCache.DeleteFunc(func(_ int64, seg snoopSeg) bool { return seg.sentTo < una })
		c.snoopSweepAt = 2*len(c.snoopCache) + snoopSweepFloor
	}
}

// checkSend validates one segment transmission. Send snapshots are taken
// before the sequence pointers advance, so a fresh send shows
// Seq == SndNxt == SndMax.
func (c *Checker) checkSend(e *trace.Event) *Violation {
	if e.Kind == trace.Send {
		if e.Seq != e.SndMax || e.Seq != e.SndNxt {
			return c.fail("tcp/send-pointer",
				"fresh send at seq %d, want snd_nxt=%d and snd_max=%d", e.Seq, e.SndNxt, e.SndMax)
		}
	} else {
		if e.Seq >= e.SndMax {
			return c.fail("tcp/retransmit-pointer",
				"retransmission at seq %d is not below snd_max %d", e.Seq, e.SndMax)
		}
		c.retx.add(e.Seq, e.Seq+e.Payload)
	}
	limit := e.SndUna + c.usableWindow(e.Cwnd)
	if e.Seq+e.Payload > limit+byteTol {
		return c.fail("tcp/window-overrun",
			"segment [%d,%d) exceeds window limit %d (snd_una=%d cwnd=%d adv=%d)",
			e.Seq, e.Seq+e.Payload, limit, e.SndUna, e.Cwnd, int64(c.cfg.Window))
	}
	if e.Deadline < 0 {
		return c.fail("tcp/timer-armed-on-send",
			"retransmission timer idle immediately after a transmission")
	}
	return nil
}

// usableWindow mirrors the sender's window(): min(cwnd, advertised),
// floored at one segment.
func (c *Checker) usableWindow(cwnd int64) int64 {
	w := cwnd
	if adv := int64(c.cfg.Window); adv < w {
		w = adv
	}
	if mss := int64(c.cfg.MSS); w < mss {
		w = mss
	}
	return w
}

// checkAck validates the processing of one inbound cumulative ACK.
func (c *Checker) checkAck(e *trace.Event) *Violation {
	switch tcp.AckClass(e.AckClass) {
	case tcp.AckNew:
		return c.checkNewAck(e)
	case tcp.AckDup:
		return c.checkDupAck(e)
	case tcp.AckOld:
		if e.Ack >= e.SndUna {
			return c.fail("tcp/ack-class",
				"ACK %d classified old but is at or above snd_una %d", e.Ack, e.SndUna)
		}
		return c.checkUnchanged("tcp/old-ack-mutation", e)
	case tcp.AckInvalid:
		if e.Ack <= e.SndMax {
			return c.fail("tcp/ack-class",
				"ACK %d classified invalid but is within snd_max %d", e.Ack, e.SndMax)
		}
		return c.checkUnchanged("tcp/ack-of-unsent", e)
	default:
		return c.fail("tcp/ack-class", "unknown ACK class %d", e.AckClass)
	}
}

// checkNewAck validates window growth, timer restart, and Karn's
// backoff-reset rule for a window-advancing ACK.
func (c *Checker) checkNewAck(e *trace.Event) *Violation {
	if e.Ack > e.SndMax {
		return c.fail("tcp/ack-of-unsent",
			"sender accepted ACK %d beyond snd_max %d", e.Ack, e.SndMax)
	}
	if e.SndUna != e.Ack {
		return c.fail("tcp/ack-advance",
			"new ACK %d left snd_una at %d", e.Ack, e.SndUna)
	}
	if e.DupAcks != 0 {
		return c.fail("tcp/ack-advance",
			"new ACK %d did not clear the duplicate-ACK run (%d)", e.Ack, e.DupAcks)
	}
	if !c.haveLast {
		return nil
	}
	p := &c.last
	// A Reno-family partial ACK spans two events (the hole's retransmit
	// snapshot already shows the advanced snd_una); the advance check
	// must compare against the event before the pair.
	base := p
	if c.inRecovery && p.Kind == trace.Retransmit && c.haveLast2 {
		base = &c.last2
	}
	if e.SndUna <= base.SndUna {
		return c.fail("tcp/ack-advance",
			"new ACK %d did not advance snd_una (%d -> %d)", e.Ack, base.SndUna, e.SndUna)
	}
	// Karn's rule: the backoff shift may only reset to zero when the ACK
	// proves a fresh (never-retransmitted) byte made a round trip.
	switch {
	case e.Shift == p.Shift:
		// unchanged: fine
	case e.Shift == 0:
		if c.retx.covers(p.SndUna, e.Ack) {
			return c.fail("tcp/karn-backoff-reset",
				"backoff reset from shift %d but ACK %d covers only retransmitted bytes [%d,%d)",
				p.Shift, e.Ack, p.SndUna, e.Ack)
		}
	default:
		return c.fail("tcp/karn-backoff-reset",
			"backoff shift moved %d -> %d on an ACK (only reset-to-0 is legal)", p.Shift, e.Shift)
	}
	c.retx.prune(e.Ack)
	if len(c.discarded) > 0 || len(c.snoopCache) >= c.snoopSweepAt {
		c.pruneShadows(e.SndUna)
	}
	if v := c.profile.newAck(c, e, p); v != nil {
		return v
	}
	// Timer discipline: restart for remaining outstanding data, stop when
	// everything is acknowledged.
	if e.SndNxt > e.SndUna {
		if !c.deadlineIs(e, e.At+e.RTO) {
			return c.fail("tcp/timer-restart-on-ack",
				"timer deadline %v after ACK, want restart at %v (now+RTO)", e.Deadline, e.At+e.RTO)
		}
	} else if e.Deadline >= 0 {
		return c.fail("tcp/timer-not-stopped-idle",
			"nothing outstanding after ACK %d but timer still armed for %v", e.Ack, e.Deadline)
	}
	return nil
}

// checkDupAck validates a duplicate ACK: no state may move, and for Tahoe
// the run length must stay below the fast-retransmit threshold (the third
// duplicate must surface as a FastRetx event instead).
func (c *Checker) checkDupAck(e *trace.Event) *Violation {
	if e.Ack != e.SndUna {
		return c.fail("tcp/ack-class",
			"ACK %d classified duplicate but snd_una is %d", e.Ack, e.SndUna)
	}
	if !c.haveLast {
		return nil
	}
	p := &c.last
	if v := c.profile.dupAck(c, e, p); v != nil {
		return v
	}
	if e.SndUna != p.SndUna || e.SndMax != p.SndMax {
		return c.fail("tcp/ack-class",
			"duplicate ACK moved sequence pointers (snd_una %d -> %d)", p.SndUna, e.SndUna)
	}
	return nil
}

// checkUnchanged asserts an ignored ACK (old or invalid) mutated nothing.
func (c *Checker) checkUnchanged(rule string, e *trace.Event) *Violation {
	if !c.haveLast {
		return nil
	}
	p := &c.last
	if e.Cwnd != p.Cwnd || e.Ssthresh != p.Ssthresh || e.Shift != p.Shift ||
		e.SndUna != p.SndUna || e.SndNxt != p.SndNxt || e.SndMax != p.SndMax {
		return c.fail(rule,
			"ignored ACK %d mutated sender state (cwnd %d->%d ssthresh %d->%d snd_una %d->%d)",
			e.Ack, p.Cwnd, e.Cwnd, p.Ssthresh, e.Ssthresh, p.SndUna, e.SndUna)
	}
	return nil
}

// checkTimeout validates the Tahoe timeout response: collapse to one
// segment, ssthresh halving, go-back-N rewind, Karn backoff, timer
// restart. These hold for every variant in this codebase (timeouts always
// abandon fast recovery).
func (c *Checker) checkTimeout(e *trace.Event) *Violation {
	// A timeout abandons any fast-recovery episode in every variant.
	c.inRecovery = false
	if !within(float64(e.Cwnd), float64(c.cfg.MSS), byteTol) {
		return c.fail("tcp/timeout-collapse",
			"cwnd %d after timeout, want one segment (%d)", e.Cwnd, int64(c.cfg.MSS))
	}
	if e.SndNxt != e.SndUna {
		return c.fail("tcp/timeout-rewind",
			"snd_nxt %d not rewound to snd_una %d (go-back-N)", e.SndNxt, e.SndUna)
	}
	if e.DupAcks != 0 {
		return c.fail("tcp/timeout-collapse",
			"timeout did not clear the duplicate-ACK run (%d)", e.DupAcks)
	}
	if !c.deadlineIs(e, e.At+e.RTO) {
		return c.fail("tcp/timer-restart-on-timeout",
			"timer deadline %v after timeout, want %v (now+RTO)", e.Deadline, e.At+e.RTO)
	}
	if !c.haveLast {
		return nil
	}
	p := &c.last
	if v := c.checkHalved("tcp/timeout-ssthresh", e, p); v != nil {
		return v
	}
	// Karn backoff: the shift increments (capped at 6) and the timeout
	// doubles (capped at tcp.MaxRTO). The RTO base cannot have changed since
	// the previous event — samples are only taken on new ACKs, which
	// snapshot too.
	const maxShift = 6
	wantShift := p.Shift + 1
	wantRTO := 2 * p.RTO
	if wantShift > maxShift {
		wantShift = maxShift
		wantRTO = p.RTO
	}
	if wantRTO > tcp.MaxRTO {
		wantRTO = tcp.MaxRTO
	}
	if e.Shift != wantShift {
		return c.fail("tcp/rto-backoff",
			"backoff shift %d after timeout, want %d", e.Shift, wantShift)
	}
	if !durWithin(e.RTO, wantRTO, 2*timeTol) {
		return c.fail("tcp/rto-backoff",
			"RTO %v after timeout, want %v (doubled from %v, capped at %v)",
			e.RTO, wantRTO, p.RTO, tcp.MaxRTO)
	}
	return nil
}

// checkHalved asserts e.Ssthresh == max(min(prev cwnd, window)/2, 2*MSS).
func (c *Checker) checkHalved(rule string, e *trace.Event, p *shadow) *Violation {
	flight := float64(p.Cwnd)
	if adv := float64(c.cfg.Window); adv < flight {
		flight = adv
	}
	exp := flight / 2
	if min := 2 * float64(c.cfg.MSS); exp < min {
		exp = min
	}
	if !within(float64(e.Ssthresh), exp, byteTol) {
		return c.fail(rule,
			"ssthresh %d, want %.0f (half of min(cwnd=%d, window=%d), floored at 2 segments)",
			e.Ssthresh, exp, p.Cwnd, int64(c.cfg.Window))
	}
	return nil
}

// checkEBSNReset validates the paper's EBSN response: the source restarts
// its retransmission timer with the *current* RTO — it does not extend an
// existing deadline, does not back off, and touches no congestion state.
func (c *Checker) checkEBSNReset(e *trace.Event) *Violation {
	if c.cfg.TrackNotifications {
		c.ebsnResets++
		if c.ebsnResets > c.ebsnSent {
			return c.fail("ebsn/reset-without-notification",
				"%d timer resets but only %d EBSNs were sent by the base station",
				c.ebsnResets, c.ebsnSent)
		}
	}
	if e.SndNxt > e.SndUna && !c.deadlineIs(e, e.At+e.RTO) {
		return c.fail("ebsn/timer-restart-not-extend",
			"timer deadline %v after EBSN, want restart at %v (now + current RTO)",
			e.Deadline, e.At+e.RTO)
	}
	if !c.haveLast {
		return nil
	}
	p := &c.last
	if e.Cwnd != p.Cwnd || e.Ssthresh != p.Ssthresh {
		return c.fail("ebsn/no-congestion-response",
			"EBSN moved cwnd/ssthresh %d/%d -> %d/%d (must be congestion-neutral)",
			p.Cwnd, p.Ssthresh, e.Cwnd, e.Ssthresh)
	}
	if e.Shift != p.Shift || !durWithin(e.RTO, p.RTO, timeTol) {
		return c.fail("ebsn/timer-restart-not-extend",
			"EBSN changed the timeout value (shift %d->%d, RTO %v->%v); it may only re-arm",
			p.Shift, e.Shift, p.RTO, e.RTO)
	}
	return nil
}

// checkQuench validates RFC 1122 source-quench handling: the window
// collapses to one segment, and nothing else moves (in particular the
// retransmission timer — which is exactly why quench cannot prevent the
// timeouts EBSN prevents).
func (c *Checker) checkQuench(e *trace.Event) *Violation {
	if c.cfg.TrackNotifications {
		c.quenchIn++
		if c.quenchIn > c.quenchSent {
			return c.fail("quench/in-without-notification",
				"%d quench responses but only %d quenches were sent", c.quenchIn, c.quenchSent)
		}
	}
	if !within(float64(e.Cwnd), float64(c.cfg.MSS), byteTol) {
		return c.fail("quench/collapse",
			"cwnd %d after source quench, want one segment (%d)", e.Cwnd, int64(c.cfg.MSS))
	}
	if !c.haveLast {
		return nil
	}
	p := &c.last
	if e.Ssthresh != p.Ssthresh || e.Shift != p.Shift || !durWithin(e.RTO, p.RTO, timeTol) {
		return c.fail("quench/collapse",
			"source quench moved ssthresh/shift/RTO (%d/%d/%v -> %d/%d/%v)",
			p.Ssthresh, p.Shift, p.RTO, e.Ssthresh, e.Shift, e.RTO)
	}
	return nil
}

// checkECN validates the [Floyd 94] ECN response: one halving per flight,
// with cwnd dropped to the new ssthresh.
func (c *Checker) checkECN(e *trace.Event) *Violation {
	if !within(float64(e.Cwnd), float64(e.Ssthresh), byteTol) {
		return c.fail("ecn/halve",
			"cwnd %d after ECN echo, want the new ssthresh %d", e.Cwnd, e.Ssthresh)
	}
	if !c.haveLast {
		return nil
	}
	return c.checkHalved("ecn/halve", e, &c.last)
}

// deadlineIs compares an armed deadline within the time tolerance; an
// idle timer (negative deadline) never matches.
func (c *Checker) deadlineIs(e *trace.Event, want time.Duration) bool {
	if e.Deadline < 0 {
		return false
	}
	return durWithin(e.Deadline, want, 2*timeTol)
}

// within compares byte quantities under the truncation tolerance.
func within(got, want float64, tol int64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= float64(tol)
}

// durWithin compares durations under tol.
func durWithin(got, want, tol time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
