package cell

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
	slot int32 // arena slot (delivery kinds) or batch size (admission)
	a    int64 // ackNo (ack arrivals) / spare
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
// and pop compares at most six lane heads. seq is stamped in push order
// and is unique, so (at, seq) is a total order and the pop sequence is a
// function of the keys alone, whatever the structure holding them. Push
// and pop are allocation-free once the rings have plateaued.
type calendar struct {
	lanes [evAdmit + 1]lane // indexed by kind; lane 0 is never used
	seq   uint64
	n     int
	// top is the lane whose head is the least (at, seq), 0 when empty:
	// pop settles it, and a push can only move it to the pushed lane.
	top uint8
	// peak is the most events ever held at once; slides counts the
	// entries pushes have moved past. Both are readings, not controls.
	peak   int
	slides uint64
}

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
	l := &c.lanes[c.top]
	return l.buf[l.head].at
}

// push schedules e, stamping its FIFO sequence number.
func (c *calendar) push(e calEvent) {
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
	// A new lane head due strictly before the calendar's minimum replaces
	// it; on a tie the older seq, already there, stays ahead.
	if c.n == 1 || (i == 0 && e.at < c.minAt()) {
		c.top = e.kind
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

// pop removes and returns the earliest event. The calendar must not be
// empty.
func (c *calendar) pop() calEvent {
	l := &c.lanes[c.top]
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	c.n--
	c.top = 0
	var best *calEvent
	for k := 1; k < len(c.lanes); k++ {
		l := &c.lanes[k]
		if l.n == 0 {
			continue
		}
		h := &l.buf[l.head]
		if best == nil || h.at < best.at || (h.at == best.at && h.seq < best.seq) {
			best, c.top = h, uint8(k)
		}
	}
	return e
}
