// Package queue provides the drop-tail FIFO used at every node's outbound
// interface. It is also the home of Table, the small key-ordered slice that the
// per-packet working sets of bs, ip, node and tcp.Sink are kept in.
package queue

import "wtcp/internal/packet"

// DropTail is a FIFO with a packet-count capacity; packets arriving to a
// full queue are dropped (tail drop), matching the router model in ns.
// The zero value is unusable; construct with New.
//
// Storage is a power-of-two ring buffer: Push/Pop are O(1) and
// allocation-free once the ring has grown to the working occupancy, which
// matters because every packet on every link passes through one of these.
type DropTail struct {
	limit int
	// ring holds the queued packets at indices head..head+count-1, modulo
	// len(ring); len(ring) is always a power of two (or zero).
	ring    []*packet.Packet
	head    int
	count   int
	dropped uint64
}

// New returns a queue holding at most limit packets. A non-positive limit
// means unbounded.
func New(limit int) *DropTail {
	return &DropTail{limit: limit}
}

// grow doubles the ring (minimum 8 slots), unwrapping the live window to
// the front of the new storage.
func (q *DropTail) grow() {
	n := len(q.ring) * 2
	if n == 0 {
		n = 8
	}
	ring := make([]*packet.Packet, n)
	for i := 0; i < q.count; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring = ring
	q.head = 0
}

// Push appends p, or drops it and reports false if the queue is full.
func (q *DropTail) Push(p *packet.Packet) bool {
	if q.limit > 0 && q.count >= q.limit {
		q.dropped++
		return false
	}
	if q.count == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = p
	q.count++
	return true
}

// Pop removes and returns the head, or nil if empty.
func (q *DropTail) Pop() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
	return p
}

// Len reports the number of queued packets.
func (q *DropTail) Len() int { return q.count }

// Dropped reports how many pushes were refused.
func (q *DropTail) Dropped() uint64 { return q.dropped }
