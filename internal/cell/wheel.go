package cell

import "math/bits"

// wheel is the engine's single retransmission-timer structure: one hashed
// timer wheel replaces the per-sender sim.Timer objects the object-graph
// engines use. Every flow owns exactly one timer index (its RTO timer);
// base stations own one more each (the CSDP poll timer). Arm and cancel
// are O(1) intrusive list operations on preallocated int32 slabs — no
// per-arm heap nodes, which is what keeps a 50k-flow run allocation-free
// while timers re-arm on every ACK.
//
// Deadlines are exact (nanosecond), not tick-quantized: the tick only
// selects the bucket. The engine fires entries at their precise deadline,
// so wheel-driven senders behave bit-identically to sim.Timer-driven
// ones. The wheel's span (tick x buckets) must exceed the longest timer
// ever armed (the 64 s RTO ceiling); arm panics otherwise, because a
// beyond-span deadline would alias into a near bucket and fire early.
type wheel struct {
	tickNs int64
	mask   int64 // nbuckets-1; nbuckets is a power of two

	head []int32 // per bucket: first entry index, or -1
	tail []int32 // per bucket: last entry index, or -1 (FIFO arm order)

	next     []int32 // per entry index
	prev     []int32
	deadline []int64 // per entry index; <0 = idle

	occupied []uint64 // bucket occupancy bitmap
	count    int

	// min caches the earliest pending deadline and minCount how many
	// entries carry exactly it, because the engine asks nextAt once per
	// micro-event while hundreds of timers can share the first occupied
	// bucket. Invariant: minCount > 0 implies min is the minimum over
	// every armed entry and minCount the number of entries at it;
	// minCount == 0 with count > 0 means "unknown" and the next nextAt
	// rescans. arm can only lower or join the minimum, so it maintains
	// the cache exactly; unlink invalidates it only by removing the last
	// entry at the minimum.
	min      int64
	minCount int
}

// newWheel sizes a wheel for nidx timer owners with the given tick and
// bucket count (rounded up to a power of two).
func newWheel(tickNs int64, nbuckets, nidx int) *wheel {
	b := 1
	for b < nbuckets {
		b <<= 1
	}
	w := &wheel{
		tickNs:   tickNs,
		mask:     int64(b - 1),
		head:     make([]int32, b),
		tail:     make([]int32, b),
		next:     make([]int32, nidx),
		prev:     make([]int32, nidx),
		deadline: make([]int64, nidx),
		occupied: make([]uint64, (b+63)/64),
	}
	for i := range w.head {
		w.head[i] = -1
		w.tail[i] = -1
	}
	for i := range w.deadline {
		w.deadline[i] = -1
	}
	return w
}

// span reports the wheel's unambiguous horizon in nanoseconds.
func (w *wheel) span() int64 { return w.tickNs * (w.mask + 1) }

func (w *wheel) bucket(at int64) int64 { return (at / w.tickNs) & w.mask }

// armed reports whether idx has a pending deadline.
func (w *wheel) armed(idx int32) bool { return w.deadline[idx] >= 0 }

// deadlineOf reports idx's pending deadline, or -1 when idle.
func (w *wheel) deadlineOf(idx int32) int64 { return w.deadline[idx] }

// arm sets idx's timer to fire at the absolute time at, replacing any
// pending deadline (sim.Timer.Set semantics). now bounds the span check.
func (w *wheel) arm(idx int32, at, now int64) {
	if at-now >= w.span() {
		panic("cell: timer deadline beyond wheel span")
	}
	if w.deadline[idx] >= 0 {
		w.unlink(idx)
	}
	if at < now {
		at = now
	}
	w.deadline[idx] = at
	b := w.bucket(at)
	// Append at the tail so same-deadline entries fire in arm order,
	// matching the kernel's same-instant FIFO discipline.
	w.prev[idx] = w.tail[b]
	w.next[idx] = -1
	if w.tail[b] >= 0 {
		w.next[w.tail[b]] = idx
	} else {
		w.head[b] = idx
		w.occupied[b>>6] |= 1 << uint(b&63)
	}
	w.tail[b] = idx
	w.count++
	switch {
	case w.count == 1 || (w.minCount > 0 && at < w.min):
		w.min, w.minCount = at, 1
	case w.minCount > 0 && at == w.min:
		w.minCount++
	}
}

// cancel clears idx's pending deadline, if any.
func (w *wheel) cancel(idx int32) {
	if w.deadline[idx] < 0 {
		return
	}
	w.unlink(idx)
	w.deadline[idx] = -1
}

func (w *wheel) unlink(idx int32) {
	b := w.bucket(w.deadline[idx])
	if w.prev[idx] >= 0 {
		w.next[w.prev[idx]] = w.next[idx]
	} else {
		w.head[b] = w.next[idx]
	}
	if w.next[idx] >= 0 {
		w.prev[w.next[idx]] = w.prev[idx]
	} else {
		w.tail[b] = w.prev[idx]
	}
	if w.head[b] < 0 {
		w.occupied[b>>6] &^= 1 << uint(b&63)
	}
	w.count--
	if w.minCount > 0 && w.deadline[idx] == w.min {
		w.minCount--
	}
}

// nextAt reports the earliest pending deadline, or -1 when no timer is
// armed. now must be at or before every pending deadline (the engine
// fires timers promptly, so deadlines are never in the past). The answer
// is the cached minimum unless the last entry carrying it has been
// unlinked since; only then is the wheel rescanned.
func (w *wheel) nextAt(now int64) int64 {
	if w.count == 0 {
		return -1
	}
	if w.minCount == 0 {
		w.min, w.minCount = w.scanMin(now)
	}
	return w.min
}

// scanMin finds the earliest pending deadline and how many entries carry
// it. It walks the occupancy bitmap ring-wise from now's bucket, and
// because every deadline is within one span of now, ring order is
// deadline-tick order and the first occupied bucket holds the minimum.
// The walk is a whole lap — the start word is met again at the end, for
// its bits below the start bit — so it finds a bucket whenever the wheel
// is not empty, which the caller guarantees.
func (w *wheel) scanMin(now int64) (min int64, n int) {
	start := w.bucket(now)
	for off := int64(0); off <= w.mask; {
		b := (start + off) & w.mask
		// Mask off bits below b within its word, then jump by whole
		// words when empty.
		word := w.occupied[b>>6] & (^uint64(0) << uint(b&63))
		if word == 0 {
			off += 64 - (b & 63)
			continue
		}
		return w.bucketMin((b&^63)+int64(bits.TrailingZeros64(word)), -1, 0)
	}
	// A lap that met no occupied bucket means count and the bitmap
	// disagree. Fall back to a full scan of the lists themselves (cold
	// path; no ring order assumed) rather than report an armed wheel as
	// empty.
	min = -1
	for b := range w.head {
		min, n = w.bucketMin(int64(b), min, n)
	}
	return min, n
}

// bucketMin folds bucket b's entries into a running (minimum, count at
// the minimum); min < 0 means none seen yet.
func (w *wheel) bucketMin(b, min int64, n int) (int64, int) {
	for e := w.head[b]; e >= 0; e = w.next[e] {
		switch d := w.deadline[e]; {
		case min < 0 || d < min:
			min, n = d, 1
		case d == min:
			n++
		}
	}
	return min, n
}

// popDue unlinks and returns the first entry (in arm order) whose
// deadline is exactly at, or -1 when none remains. The engine calls it in
// a loop at each pump instant.
func (w *wheel) popDue(at int64) int32 {
	if w.count == 0 {
		return -1
	}
	b := w.bucket(at)
	for e := w.head[b]; e >= 0; e = w.next[e] {
		if w.deadline[e] == at {
			w.unlink(e)
			w.deadline[e] = -1
			return e
		}
	}
	return -1
}
