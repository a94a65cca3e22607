package cell

import (
	"fmt"

	"wtcp/internal/packet"
	"wtcp/internal/units"
)

// arena is the shared packet store: a data segment lives in one slot here
// while it is on the wired hop (its evWiredArrive event holds the slot)
// or in its base-station queue, until the ARQ acknowledges or discards
// it. The receiver gets a copy: the delivery event carries the segment's
// sequence number and payload length by value and holds no slot, so the
// engine gives a slot one holder at a time. The reference count is what
// latches a double free or a use of a freed slot, and incref is there
// for a second holder.
//
// Storage is struct-of-arrays so a 50k-flow run touches dense slabs
// instead of pointer-chasing 100k tiny heap objects, and the free list
// makes steady-state alloc/release allocation-free once capacity has
// plateaued.
type arena struct {
	flow   []int32
	seq    []int64
	paylen []int32
	ref    []int32

	free []int32

	live   int
	peak   int
	allocs uint64

	// misuse records the first refcount violation (double free or
	// release of a free slot). It is a protocol bug in the engine, never
	// a network condition, so it is latched here and surfaced by
	// engine.failed as the run's "cell: arena-misuse" fault.
	misuse error
}

// noSlot is the nil packet reference.
const noSlot int32 = -1

// newArena returns an arena with capacity for hint packets (grown on
// demand; growth is amortized and stops once the working set plateaus).
func newArena(hint int) *arena {
	if hint < 16 {
		hint = 16
	}
	a := &arena{
		flow:   make([]int32, 0, hint),
		seq:    make([]int64, 0, hint),
		paylen: make([]int32, 0, hint),
		ref:    make([]int32, 0, hint),
		free:   make([]int32, 0, hint),
	}
	return a
}

// alloc claims a slot holding one data segment with refcount 1.
func (a *arena) alloc(flow int32, seq int64, paylen int32) int32 {
	var s int32
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free = a.free[:n-1]
		a.flow[s] = flow
		a.seq[s] = seq
		a.paylen[s] = paylen
		a.ref[s] = 1
	} else {
		s = int32(len(a.flow))
		a.flow = append(a.flow, flow)
		a.seq = append(a.seq, seq)
		a.paylen = append(a.paylen, paylen)
		a.ref = append(a.ref, 1)
	}
	a.allocs++
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	return s
}

// incref adds one reference to a live slot.
func (a *arena) incref(s int32) {
	if a.ref[s] <= 0 {
		a.fault(s, "incref of free slot")
		return
	}
	a.ref[s]++
}

// decref drops one reference; the slot returns to the free list when the
// count reaches zero.
func (a *arena) decref(s int32) {
	if a.ref[s] <= 0 {
		a.fault(s, "double free")
		return
	}
	a.ref[s]--
	if a.ref[s] == 0 {
		a.live--
		a.free = append(a.free, s)
	}
}

// size reports the slot's on-wire size (header plus payload).
func (a *arena) size(s int32) units.ByteSize {
	return packet.HeaderSize + units.ByteSize(a.paylen[s])
}

// fault latches the first refcount violation.
func (a *arena) fault(s int32, what string) {
	if a.misuse == nil {
		a.misuse = fmt.Errorf("%s: slot %d (flow %d seq %d)", what, s, a.flow[s], a.seq[s])
	}
}

// Live reports the number of slots with a non-zero refcount.
func (a *arena) Live() int { return a.live }

// ArenaStats summarizes arena activity for a run's Result.
type ArenaStats struct {
	// Allocs counts slot claims over the whole run.
	Allocs uint64
	// PeakLive is the maximum simultaneously-referenced slot count:
	// segments on the wired hop or in a base-station queue.
	PeakLive int
	// Capacity is the final slot-slab size.
	Capacity int
	// LiveAtEnd is the referenced-slot count after end-of-run drain; a
	// non-zero value means a leaked reference.
	LiveAtEnd int
}

func (a *arena) stats() ArenaStats {
	return ArenaStats{Allocs: a.allocs, PeakLive: a.peak, Capacity: len(a.flow), LiveAtEnd: a.live}
}
