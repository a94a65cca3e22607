package sim

import (
	"slices"
	"time"
)

// This file is the kernel's event storage: one slice of event pointers
// ordered by (time, sequence) in one of two layouts, plus the free list
// that recycles event structs so steady-state scheduling allocates
// nothing.
//
// The layout follows the queue's size, which is all the queue can see.
// A core.Run holds a median of 6 events at an insert and at most 22,
// and about half of its new or re-armed events become the new minimum
// (links deliver after a fixed delay; RTO and reassembly timers sit far
// out). Up to sortedMax entries the slice is therefore sorted
// latest-first: popMin takes the last element and moves nothing, and
// push settles an event by scanning from the earliest end, usually past
// none or a few entries. A sorted slice alone is quadratic on a large
// queue, so past sortedMax the slice is reversed — an earliest-first
// array is already a valid heap — and a monomorphic 4-ary min-heap takes
// over until the queue drains back to sortedReturn entries.
//
// Why not container/heap: the interface-based API boxes every Push/Pop
// through `any`, forces dynamic dispatch on Less/Swap, and its binary
// layout does one comparison per level. A 4-ary heap is shallower
// (log4 n levels), and the four children of a node share a cache line of
// the backing slice, so sift-down touches less memory per level. Either
// layout holds *event pointers directly; there is no boxing anywhere on
// the schedule/fire path.
//
// Cancellation is lazy: Cancel tombstones the event in place (see
// Simulator.Cancel) and the tombstone is dropped when it reaches the
// front, or en masse by compact() when tombstones dominate the queue. A
// Timer never adds to them: re-arming it re-keys its one entry in place,
// live or tombstoned (see Simulator.rearm), so the queue holds at most
// one slot per timer however often it is reset or stopped. The pop
// order of live events is the same as with eager removal, and the same
// in either layout, because the (at, seq) key is unique per event: the
// pop sequence over a fixed key set is determined by the keys alone,
// never by insertion history or layout.

// event is the kernel-internal representation of a scheduled callback.
// Fired and cancelled events return to the simulator's free list; gen is
// bumped on every recycle so stale Event handles can never reach a
// recycled struct (see Event).
type event struct {
	at   time.Duration
	seq  uint64
	gen  uint64
	pos  int32 // slot in the queue, or -1 when not queued
	dead bool  // tombstoned by Cancel, dropped at pop/compact time
	fn   func()
}

// eventLess orders events by (time, sequence): earlier time first, and
// FIFO within the same instant. The pair is unique per event, so the
// order is total — this is the determinism contract the repository's
// bit-identical replays rest on.
func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

const (
	// sortedMax is the most entries the sorted layout holds; one more
	// turns the queue into a heap. It is about 1.5× the largest core.Run
	// peak (22), and core's TestHeapHighWaterStaysSmall pins the WAN
	// presets under it.
	sortedMax = 32
	// sortedReturn is the size at which a heap-layout queue sorts itself
	// again. The gap to sortedMax is the hysteresis that keeps a queue
	// hovering near 32 from flapping between layouts.
	sortedReturn = 8
)

// eventQueue holds the pending events in one of two layouts of a. In
// the sorted layout (heap false) a is ordered latest-first, so the
// earliest event is a[len-1]. In the heap layout a is a 4-ary min-heap:
// children of node i live at 4i+1..4i+4, the parent of node i is
// (i-1)/4, and the earliest event is a[0]. Every event's pos is its
// index in a, in either layout.
type eventQueue struct {
	a    []*event
	heap bool
}

func (q *eventQueue) len() int { return len(q.a) }

// min returns the earliest entry, tombstone or not; the queue must not
// be empty.
func (q *eventQueue) min() *event {
	if q.heap {
		return q.a[0]
	}
	return q.a[len(q.a)-1]
}

// push inserts e, spilling the sorted layout into a heap when it is full.
func (q *eventQueue) push(e *event) {
	if !q.heap {
		if len(q.a) < sortedMax {
			q.a = append(q.a, e)
			q.slide(len(q.a) - 1)
			return
		}
		q.toHeap()
	}
	q.a = append(q.a, e)
	q.siftUp(len(q.a) - 1)
}

// siftUp restores the heap property from slot i toward the root and
// reports whether the event moved.
func (q *eventQueue) siftUp(i int) bool {
	a := q.a
	e := a[i]
	start := i
	// Sift up with a hole: move parents down until e's slot is found.
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(e, a[p]) {
			break
		}
		a[i] = a[p]
		a[i].pos = int32(i)
		i = p
	}
	a[i] = e
	e.pos = int32(i)
	return i != start
}

// fix restores the order after the event in slot i was given a new key
// (see Simulator.rearm).
func (q *eventQueue) fix(i int) {
	if q.heap {
		if !q.siftUp(i) {
			q.siftDown(i)
		}
		return
	}
	// Sorted layout: a key that moved earlier walks toward the end past
	// the entries now later than it; otherwise slide walks it back.
	a := q.a
	e := a[i]
	for i+1 < len(a) && eventLess(e, a[i+1]) {
		a[i] = a[i+1]
		a[i].pos = int32(i)
		i++
	}
	a[i] = e
	q.slide(i)
}

// popMin removes and returns the earliest entry.
func (q *eventQueue) popMin() *event {
	a := q.a
	n := len(a) - 1
	if !q.heap {
		e := a[n]
		a[n] = nil
		q.a = a[:n]
		e.pos = -1
		return e
	}
	root := a[0]
	last := a[n]
	a[n] = nil
	q.a = a[:n]
	if n > 0 {
		q.a[0] = last
		last.pos = 0
		q.siftDown(0)
	}
	root.pos = -1
	if n <= sortedReturn {
		q.toSorted()
	}
	return root
}

// siftDown restores the heap property from slot i toward the leaves.
func (q *eventQueue) siftDown(i int) {
	a := q.a
	n := len(a)
	e := a[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if eventLess(a[j], a[best]) {
				best = j
			}
		}
		if !eventLess(a[best], e) {
			break
		}
		a[i] = a[best]
		a[i].pos = int32(i)
		i = best
	}
	a[i] = e
	e.pos = int32(i)
}

// heapify rebuilds the heap property over the whole slice (used after
// compaction filters tombstones out in place).
func (q *eventQueue) heapify() {
	a := q.a
	for i, e := range a {
		e.pos = int32(i)
	}
	if len(a) < 2 {
		return
	}
	for i := (len(a) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

// slide moves the entry in slot i of the sorted layout toward the latest
// end past every entry earlier than it, into the ordered run a[:i].
func (q *eventQueue) slide(i int) {
	a := q.a
	e := a[i]
	for i > 0 && eventLess(a[i-1], e) {
		a[i] = a[i-1]
		a[i].pos = int32(i)
		i--
	}
	a[i] = e
	e.pos = int32(i)
}

// toHeap switches a sorted queue to the heap layout. Reversed, the
// latest-first slice is earliest-first, and an ascending array already
// satisfies the heap property.
func (q *eventQueue) toHeap() {
	slices.Reverse(q.a)
	for i, e := range q.a {
		e.pos = int32(i)
	}
	q.heap = true
}

// toSorted switches a queue of at most sortedReturn entries, in any
// order, to the sorted layout by insertion sort.
func (q *eventQueue) toSorted() {
	q.heap = false
	for i := range q.a {
		q.slide(i)
	}
}

// compactMin is the tombstone floor below which compaction never runs;
// amortization needs a batch, and small queues clean themselves up at
// pop time anyway. It is above sortedMax, so only a heap is compacted.
const compactMin = 64

// compact filters every tombstone out of the heap in one pass, recycles
// them, and re-heapifies (or sorts, if few enough remain). Called when
// tombstones outnumber live events (see Cancel), which bounds tombstone
// memory at ~2x the live set and keeps the amortized cost per cancel
// O(1).
func (s *Simulator) compact() {
	a := s.queue.a
	keep := a[:0]
	for _, e := range a {
		if e.dead {
			s.recycle(e)
		} else {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(a); i++ {
		a[i] = nil
	}
	s.queue.a = keep
	s.dead = 0
	s.stats.Compactions++
	if len(keep) > sortedReturn {
		s.queue.heapify()
	} else {
		s.queue.toSorted()
	}
}

// alloc takes an event struct from the free list, or allocates the free
// list's first tenant. Steady state (as many events firing as being
// scheduled) allocates nothing.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &event{pos: -1}
}

// recycle returns a fired or cancelled event to the free list. The
// generation bump invalidates every outstanding handle to the struct, so
// a caller holding a stale Event cannot observe or cancel the struct's
// next tenant.
func (s *Simulator) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.pos = -1
	e.dead = false
	s.free = append(s.free, e)
}
