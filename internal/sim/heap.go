package sim

import "time"

// This file is the kernel's event storage: a monomorphic 4-ary min-heap
// ordered by (time, sequence), plus the free list that recycles event
// structs so steady-state scheduling allocates nothing.
//
// Why not container/heap: the interface-based API boxes every Push/Pop
// through `any`, forces dynamic dispatch on Less/Swap, and its binary
// layout does one comparison per level. A 4-ary heap is shallower
// (log4 n levels), and the four children of a node share a cache line of
// the backing slice, so sift-down touches less memory per level. The heap
// holds *event pointers directly; there is no boxing anywhere on the
// schedule/fire path.
//
// Cancellation is lazy: Cancel tombstones the event in place (see
// Simulator.Cancel) and the tombstone is dropped when it surfaces at the
// root, or en masse by compact() when tombstones dominate the heap. A
// Timer never adds to them: re-arming it re-keys its one heap entry in
// place, live or tombstoned (see Simulator.rearm), so the heap holds at
// most one slot per timer however often it is reset or stopped. The pop
// order of live events is the same as with eager removal because the
// (at, seq) key is unique per event: a heap's pop sequence over a fixed
// key set is determined by the keys alone, never by insertion history.

// event is the kernel-internal representation of a scheduled callback.
// Fired and cancelled events return to the simulator's free list; gen is
// bumped on every recycle so stale Event handles can never reach a
// recycled struct (see Event).
type event struct {
	at   time.Duration
	seq  uint64
	gen  uint64
	pos  int32 // heap index, or -1 when not queued
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

// eventQueue is the 4-ary min-heap. Children of node i live at
// 4i+1..4i+4; the parent of node i is (i-1)/4.
type eventQueue struct {
	a []*event
}

func (q *eventQueue) len() int { return len(q.a) }

// push appends e and restores the heap property upward.
func (q *eventQueue) push(e *event) {
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

// fix restores the heap property after the event in slot i was given a
// new key (see Simulator.rearm).
func (q *eventQueue) fix(i int) {
	if !q.siftUp(i) {
		q.siftDown(i)
	}
}

// popMin removes and returns the root (the earliest event).
func (q *eventQueue) popMin() *event {
	a := q.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = nil
	q.a = a[:n]
	if n > 0 {
		q.a[0] = last
		last.pos = 0
		q.siftDown(0)
	}
	root.pos = -1
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

// compactMin is the tombstone floor below which compaction never runs;
// amortization needs a batch, and tiny heaps clean themselves up at pop
// time anyway.
const compactMin = 64

// compact filters every tombstone out of the heap in one pass, recycles
// them, and re-heapifies. Called when tombstones outnumber live events
// (see Cancel), which bounds tombstone memory at ~2x the live set and
// keeps the amortized cost per cancel O(1).
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
	s.queue.heapify()
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
