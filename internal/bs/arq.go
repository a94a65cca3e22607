package bs

import (
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
)

// arqEngine is the local-recovery link protocol: pipelined per-unit
// stop-and-wait with link-level acknowledgments.
//
// Up to Window link units are outstanding at once (pipelining keeps the
// radio busy, so recovery does not itself sacrifice throughput). Each unit
// gets an acknowledgment timer armed when the unit finishes serializing;
// an expiry is an "unsuccessful attempt": the base station notifies the
// source (EBSN / quench schemes), waits a uniform random backoff, and
// retransmits — up to RTmax retransmissions, after which the whole network
// packet is discarded (all of its units withdrawn), per the CDPD-style
// protocol the paper adopts.
type arqEngine struct {
	bs  *BaseStation
	cfg ARQConfig

	// pendingUnits holds link units not yet transmitted, FIFO across
	// packets (an unbounded ring: admission is bounded by QueueLimit).
	pendingUnits *queue.DropTail
	// outstanding holds the in-flight attempt state by unit ID: at most
	// Window entries.
	outstanding queue.Table[uint64, *arqEntry]
	// held records, by network-packet ID, the packet's connection and the
	// number of its units still unacknowledged (pending, outstanding, or
	// backing off); when that reaches zero the packet has fully crossed
	// the wireless hop. At most QueueLimit entries, and link acks arrive
	// for the oldest. A packet discarded after RTmax leaves every
	// structure at once, its queued units included (see discardPacket):
	// no per-packet record outlives the packet's stay at the station,
	// and late link acks for its units simply find nothing outstanding.
	held queue.Table[uint64, heldPacket]
	// nextLinkSeq numbers units so the mobile host can restore
	// in-sequence delivery (retransmission backoffs reorder the air).
	nextLinkSeq int64
	// connUnits counts unacknowledged units per connection, so a failed
	// attempt can notify every source whose data is held up (identical
	// to the single-connection behaviour when only one source exists).
	connUnits queue.Table[int, int]
	// freeEntries recycles attempt-state records (and their pre-bound
	// timers) so the per-unit transmit path allocates nothing once warm.
	freeEntries []*arqEntry
	// heldUp is heldUpConns' reusable result buffer.
	heldUp []int
}

// heldPacket is the station's record of one admitted network packet.
type heldPacket struct {
	conn  int
	units int
}

// arqEntry tracks one outstanding (or backing-off) unit. Entries are
// pooled: getEntry/putEntry recycle them, and each entry owns a single
// timer, pre-bound at creation, that serves both the acknowledgment
// deadline and the retransmission backoff (backingOff says which phase
// the entry is in when the timer fires).
type arqEntry struct {
	id uint64 // unit ID currently tracked (guards stale timer fires)
	// unit is the entry's own reference to the link unit, kept beside the
	// one in flight so the unit can be re-sent by pointer.
	unit     *packet.Packet
	attempts int // transmissions so far
	timer    *sim.Timer
	// backingOff marks the gap between an unsuccessful attempt and the
	// retransmission; the entry does not count toward the window then.
	backingOff bool
}

func newARQEngine(b *BaseStation, cfg ARQConfig) *arqEngine {
	e := &arqEngine{
		bs:           b,
		cfg:          cfg,
		pendingUnits: queue.New(0),
	}
	// Arm acknowledgment timers from the instant a unit leaves the
	// transmitter, not when it was queued.
	b.down.SetTxDoneHook(e.onTxDone)
	return e
}

// backlogPackets reports how many network packets are still crossing the
// wireless hop.
func (e *arqEngine) backlogPackets() int { return len(e.held) }

// getEntry takes an attempt-state record from the pool, or builds one
// with its timer pre-bound to the entry (the closure is allocated once
// per pooled record, not once per transmission).
func (e *arqEngine) getEntry() *arqEntry {
	if n := len(e.freeEntries); n > 0 {
		en := e.freeEntries[n-1]
		e.freeEntries = e.freeEntries[:n-1]
		return en
	}
	en := &arqEntry{}
	en.timer = sim.NewTimer(e.bs.sim, func() { e.timerFired(en) })
	return en
}

// putEntry stops the entry's timer, releases its unit, and returns it to
// the pool. Callers must have removed it from outstanding first.
func (e *arqEngine) putEntry(en *arqEntry) {
	en.timer.Stop()
	en.unit.Release()
	en.unit = nil
	e.freeEntries = append(e.freeEntries, en)
}

// timerFired dispatches the entry's timer: an expiry during backoff is
// the cue to retransmit, otherwise it is a missed acknowledgment. The
// identity check drops stale fires (the entry was recycled for another
// unit while an old callback was in flight).
func (e *arqEngine) timerFired(en *arqEntry) {
	if e.entry(en.id) != en {
		return
	}
	if en.backingOff {
		e.retransmit(en.id)
	} else {
		e.onAckTimeout(en.id)
	}
}

// reset discards all recovery state — a base-station crash. Every pending
// or in-flight unit and its timers are dropped; the link sequence counter
// keeps running so post-restart units never reuse a sequence number the
// mobile host has already seen. It returns the number of network packets
// whose delivery state was lost. It is also the end-of-run teardown: every
// unit reference the engine holds is released.
func (e *arqEngine) reset() int {
	lost := len(e.held)
	for _, o := range e.outstanding {
		e.putEntry(o.Val)
	}
	for u := e.pendingUnits.Pop(); u != nil; u = e.pendingUnits.Pop() {
		u.Release()
	}
	e.outstanding.Reset()
	e.held.Reset()
	e.connUnits.Reset()
	return lost
}

// admit accepts a data packet from the wired side — the engine then owns
// it — or refuses it when the hold queue is full.
func (e *arqEngine) admit(p *packet.Packet) bool {
	if len(e.held) >= e.bs.cfg.QueueLimit {
		return false
	}
	id, conn := p.ID, p.Conn
	units := e.bs.units(p) // p may be gone after this
	hp := heldPacket{conn: conn, units: len(units)}
	if i, fresh := e.held.Insert(id, hp); !fresh {
		// A duplicated wired packet (fault injection) whose first copy is
		// still held: the record restarts from the newcomer's units.
		e.held[i].Val = hp
	} else {
		e.bs.stats.HeldPeak = max(e.bs.stats.HeldPeak, len(e.held))
	}
	if i, fresh := e.connUnits.Insert(conn, len(units)); !fresh {
		e.connUnits[i].Val += len(units)
	}
	for _, u := range units {
		e.nextLinkSeq++
		u.LinkSeq = e.nextLinkSeq
		e.pendingUnits.Push(u)
	}
	e.fill()
	return true
}

// inFlight counts entries holding a window slot. Backing-off entries keep
// their slot: releasing it would let the whole backlog cycle through
// failed attempts during a fade, marching every queued packet toward the
// RTmax discard instead of only the window's head — the FIFO-ish
// behaviour the paper's protocol has.
func (e *arqEngine) inFlight() int { return len(e.outstanding) }

// fill transmits pending units while window slots are free.
func (e *arqEngine) fill() {
	for e.inFlight() < e.cfg.Window && e.pendingUnits.Len() > 0 {
		e.transmit(e.pendingUnits.Pop(), 1)
	}
}

// unitPacketID returns the network-packet ID a unit belongs to.
func (e *arqEngine) unitPacketID(u *packet.Packet) uint64 {
	if u.Kind == packet.Fragment {
		return u.FragOf
	}
	return u.ID
}

// transmit puts a unit on the air and registers its attempt state; the
// entry takes over the caller's reference to u.
func (e *arqEngine) transmit(u *packet.Packet, attempt int) {
	en := e.getEntry()
	en.id = u.ID
	en.unit = u
	en.attempts = attempt
	en.backingOff = false
	if i, fresh := e.outstanding.Insert(u.ID, en); !fresh {
		// A duplicated wired packet (fault injection) carries a unit ID
		// already being tracked. The newer attempt supersedes the older
		// entry, whose timer will find itself stale; it keeps no unit.
		old := e.outstanding[i].Val
		old.unit.Release()
		old.unit = nil
		e.outstanding[i].Val = en
	}
	e.bs.stats.ARQAttempts++
	if e.bs.hooks.OnARQAttempt != nil {
		e.bs.hooks.OnARQAttempt(u.ID, e.unitPacketID(u), attempt)
	}
	// The ack timer is armed by onTxDone when serialization finishes. If
	// the link refuses the unit outright (full queue), treat that as an
	// immediate unsuccessful attempt.
	e.send(en)
}

// send puts the entry's unit on the downlink with a reference of its own
// (the link, and whoever it delivers to, releases that one).
func (e *arqEngine) send(en *arqEntry) {
	en.unit.Retain()
	if !e.bs.down.Send(en.unit) {
		en.timer.Set(0)
	}
}

// onTxDone fires when the downlink finishes serializing any packet; arm
// the corresponding ack timer.
func (e *arqEngine) onTxDone(p *packet.Packet) {
	if en := e.entry(p.ID); en != nil && !en.backingOff {
		en.timer.Set(e.cfg.AckTimeout)
	}
}

// entry returns the attempt state tracked for unit id, or nil.
func (e *arqEngine) entry(id uint64) *arqEntry {
	if i := e.outstanding.Find(id); i >= 0 {
		return e.outstanding[i].Val
	}
	return nil
}

// onLinkAck handles a link-level acknowledgment for unit id.
func (e *arqEngine) onLinkAck(id uint64) {
	i := e.outstanding.Find(id)
	if i < 0 {
		return // stale ack (unit already acked or its packet discarded)
	}
	en := e.outstanding[i].Val
	e.outstanding.Delete(i)
	pid := e.unitPacketID(en.unit)
	if e.bs.hooks.OnARQAck != nil {
		e.bs.hooks.OnARQAck(id, pid)
	}
	e.putEntry(en)
	if i := e.held.Find(pid); i >= 0 {
		hp := &e.held[i].Val
		conn := hp.conn
		if hp.units--; hp.units <= 0 {
			e.held.Delete(i)
		}
		e.releaseConn(conn, 1)
	}
	e.fill()
}

// releaseConn reduces a connection's held-up unit count by n.
func (e *arqEngine) releaseConn(conn, n int) {
	i := e.connUnits.Find(conn)
	if i < 0 {
		return
	}
	if e.connUnits[i].Val -= n; e.connUnits[i].Val <= 0 {
		e.connUnits.Delete(i)
	}
}

// heldUpConns lists the connections with units still crossing the hop,
// in ascending order — connUnits' own order, which fixes the order
// notifications are emitted in. The result is valid until the next call.
func (e *arqEngine) heldUpConns() []int {
	e.heldUp = e.heldUp[:0]
	for _, c := range e.connUnits {
		e.heldUp = append(e.heldUp, c.Key)
	}
	return e.heldUp
}

// onAckTimeout declares an attempt unsuccessful: notify the source, then
// back off and retransmit or discard the whole packet after RTmax
// retransmissions.
func (e *arqEngine) onAckTimeout(id uint64) {
	en := e.entry(id)
	if en == nil {
		return
	}
	e.bs.stats.ARQTimeouts++
	if e.bs.hooks.OnARQFailure != nil {
		e.bs.hooks.OnARQFailure(id, e.unitPacketID(en.unit), en.attempts)
	}
	// Notify every source whose data the hop is holding up — with one
	// connection this is exactly the paper's "notify the source"; with
	// several, bystanders queued behind the failure need the timer push
	// just as much.
	e.bs.notifyFailureAll(en.unit.Conn, e.heldUpConns())

	if en.attempts > e.cfg.RTmax { // initial try + RTmax retransmissions
		e.discardPacket(e.unitPacketID(en.unit))
		return
	}
	// Back off, then retransmit. The entry frees its window slot during
	// the backoff so other units keep the radio busy.
	en.backingOff = true
	backoff := time.Duration(e.bs.rng.Float64() * float64(e.cfg.BackoffMax))
	en.timer.Set(backoff)
	e.fill()
}

// retransmit re-sends a unit after its backoff.
func (e *arqEngine) retransmit(id uint64) {
	en := e.entry(id)
	if en == nil {
		return
	}
	en.backingOff = false
	en.attempts++
	e.bs.stats.ARQAttempts++
	if e.bs.hooks.OnARQAttempt != nil {
		e.bs.hooks.OnARQAttempt(id, e.unitPacketID(en.unit), en.attempts)
	}
	e.send(en)
}

// discardPacket withdraws every unit of the given network packet.
func (e *arqEngine) discardPacket(pid uint64) {
	e.bs.stats.ARQDiscards++
	if e.bs.hooks.OnARQDiscard != nil {
		e.bs.hooks.OnARQDiscard(pid)
	}
	if i := e.held.Find(pid); i >= 0 {
		hp := e.held[i].Val
		e.held.Delete(i)
		e.releaseConn(hp.conn, hp.units)
	}
	for i := 0; i < len(e.outstanding); {
		if en := e.outstanding[i].Val; e.unitPacketID(en.unit) == pid {
			e.outstanding.Delete(i)
			e.putEntry(en)
		} else {
			i++
		}
	}
	// Withdraw the packet's queued units too: one turn of the ring,
	// keeping everyone else's in order.
	for n := e.pendingUnits.Len(); n > 0; n-- {
		if u := e.pendingUnits.Pop(); e.unitPacketID(u) == pid {
			u.Release()
		} else {
			e.pendingUnits.Push(u)
		}
	}
	e.fill()
}
