package cell

import "math"

// calEvent is one scheduled micro-event. The calendar carries every
// one-shot occurrence the engine schedules — wired-pipe arrivals, radio
// cycle completions, sink deliveries, ACK and EBSN arrivals, admission
// batches — as a plain value in a monomorphic queue, instead of one
// closure-bearing kernel event each. Calendar events never cancel, which
// is what lets them live in plain rings with no tombstone machinery; the
// cancellable timers (RTO, CSDP poll) live on the wheel.
type calEvent struct {
	at   int64  // absolute virtual time, ns
	seq  uint64 // schedule order; breaks same-instant ties FIFO
	kind uint8
	flow int32
	bs   int32
	// slot is the arena slot a wired arrival holds, a delivered
	// segment's payload length (sink deliveries carry the segment by
	// value and hold no slot), or unused.
	slot int32
	a    int64 // ackNo (ack arrivals) / sequence number (sink deliveries)
}

// Calendar event kinds.
const (
	evWiredArrive uint8 = iota + 1 // data segment reaches its BS queue
	evRadioDone                    // stop-and-wait radio cycle completes
	evSinkDeliver                  // data segment reaches the mobile sink
	evAckArrive                    // TCP ack reaches the sender
	evEBSNArrive                   // bad-state notification reaches the sender
	evAdmit                        // admission batch: start the next flows
)

// calendar is a priority queue of calEvents ordered by (at, seq), kept as
// one time-sorted ring per event kind and merged on pop. Events of one
// kind are scheduled at non-decreasing virtual times with a near-constant
// delay (a wired hop, a radio cycle, a propagation delay), so each kind
// arrives almost sorted: push appends to the kind's ring and slides the
// newcomer back past the few entries due later than it — usually none —
// and pop picks the least of six cached lane heads. seq is stamped in
// push order and is unique, so (at, seq) is a total order and the pop
// sequence is a function of the keys alone, whatever the structure
// holding them. Push and pop are allocation-free once the rings have
// plateaued.
type calendar struct {
	lanes [evAdmit + 1]lane // indexed by kind; lane 0 is never used
	// headAt and headSeq cache each lane's head key, so choosing the
	// next lane reads these two small arrays instead of six ring slots.
	// An empty lane reads as the largest at; the first push sets every
	// lane so, which keeps a zero calendar usable.
	headAt  [evAdmit + 1]int64
	headSeq [evAdmit + 1]uint64
	seq     uint64
	n       int
	// top is the lane whose head is the least (at, seq) while the
	// calendar holds events: pop settles it, and a push can only move it
	// to the pushed lane.
	top uint8
	// peak is the most events ever held at once; slides counts the
	// entries pushes have moved past. Both are readings, not controls.
	peak   int
	slides uint64
}

// emptyAt is an empty lane's cached head time: later than any event.
const emptyAt = math.MaxInt64

// lane is one kind's events in (at, seq) order: a ring over a
// power-of-two buffer.
type lane struct {
	buf  []calEvent
	head int
	n    int
}

func (c *calendar) len() int { return c.n }

// minAt reports the earliest scheduled time, or -1 when empty.
func (c *calendar) minAt() int64 {
	if c.n == 0 {
		return -1
	}
	return c.headAt[c.top]
}

// push schedules e, stamping its FIFO sequence number.
func (c *calendar) push(e calEvent) {
	if c.seq == 0 {
		for k := range c.headAt {
			c.headAt[k] = emptyAt
		}
	}
	c.seq++
	e.seq = c.seq
	l := &c.lanes[e.kind]
	if l.n == len(l.buf) {
		l.grow()
	}
	mask := len(l.buf) - 1
	// e carries the largest seq, so it belongs behind every entry due at
	// or before e.at and ahead of every one due after.
	i := l.n
	for ; i > 0 && l.buf[(l.head+i-1)&mask].at > e.at; i-- {
		l.buf[(l.head+i)&mask] = l.buf[(l.head+i-1)&mask]
	}
	c.slides += uint64(l.n - i)
	// Field by field: e arrives in registers and is spilled one field at
	// a time, and a wide copy out of that spill waits on every narrow
	// store it straddles (3-4 % of a cell_10k run).
	p := &l.buf[(l.head+i)&mask]
	p.at, p.seq, p.kind, p.flow, p.bs, p.slot, p.a = e.at, e.seq, e.kind, e.flow, e.bs, e.slot, e.a
	l.n++
	if c.n++; c.n > c.peak {
		c.peak = c.n
	}
	if i == 0 {
		// A new lane head due strictly before the calendar's minimum
		// takes the top; on a tie the older seq, already there, stays
		// ahead. The lane's old head, if any, was due after e.
		if c.n == 1 || e.at < c.headAt[c.top] {
			c.top = e.kind
		}
		c.headAt[e.kind], c.headSeq[e.kind] = e.at, e.seq
	}
}

// grow doubles the lane's ring, unrolling it to the front of the new
// buffer.
func (l *lane) grow() {
	buf := make([]calEvent, max(2*len(l.buf), 16))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes the earliest event and returns its fields — as results,
// not a calEvent, so the caller switches on them straight from registers
// instead of copying a spilled struct back out. The calendar must not be
// empty.
func (c *calendar) pop() (kind uint8, flow, bs, slot int32, a int64) {
	k := c.top
	l := &c.lanes[k]
	p := &l.buf[l.head]
	kind, flow, bs, slot, a = p.kind, p.flow, p.bs, p.slot, p.a
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	c.n--
	if l.n > 0 {
		h := &l.buf[l.head]
		c.headAt[k], c.headSeq[k] = h.at, h.seq
	} else {
		c.headAt[k] = emptyAt
	}
	top, at, seq := uint8(1), c.headAt[1], c.headSeq[1]
	for j := uint8(2); j <= evAdmit; j++ {
		if h := c.headAt[j]; h < at || (h == at && c.headSeq[j] < seq) {
			top, at, seq = j, h, c.headSeq[j]
		}
	}
	c.top = top
	return
}
