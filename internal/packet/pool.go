package packet

import (
	"errors"
	"sync"
)

// Pool is the run-scoped packet store of the per-flow data path: a free
// list of recycled packets plus the reference counts carried in the
// packets themselves (latched misuse, like the cell engine's segment
// conservation latch). Pointer-passed packets need the reference counts
// the cell's by-value segments do not, because a link unit is
// legitimately alive in two places at once — the base station's ARQ
// keeps it for retransmission while the same pointer crosses the radio
// or waits in the mobile host's reorder buffer.
//
// The pool keeps no reference to a packet it has handed out. A holder
// that never calls Release therefore costs only the recycling: the packet
// is garbage-collected like any other, and nothing else can be handed
// its memory.
//
// Misuse — releasing a packet that is already free, or retaining one —
// is a bug in a component, never a network condition. The first such
// fault is latched (Fault) and the offending call has no effect, so the
// free list stays consistent; core.Run returns the fault as a
// protocol-bug error.
//
// A Pool is not safe for concurrent use: like the simulator it serves, it
// belongs to one run at a time.
type Pool struct {
	free []*Packet

	live int
	peak int
	gets uint64

	fault error
}

// Lifetime faults latched by a Pool.
var (
	// ErrDoubleRelease reports a Release of a packet whose last
	// reference was already dropped.
	ErrDoubleRelease = errors.New("packet: release of a free packet")
	// ErrRetainAfterFree reports a Retain of a packet whose last
	// reference was already dropped.
	ErrRetainAfterFree = errors.New("packet: retain of a free packet")
)

// get claims a zeroed packet holding one reference. A nil pool allocates:
// that is the pool-less IDGen, whose packets the garbage collector owns.
func (pl *Pool) get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		p = &Packet{home: pl}
		p.self = p
	}
	p.refs = 1
	pl.gets++
	pl.live++
	if pl.live > pl.peak {
		pl.peak = pl.live
	}
	return p
}

// latch records the first lifetime fault.
func (pl *Pool) latch(err error) {
	if pl.fault == nil {
		pl.fault = err
	}
}

// Fault returns the first lifetime fault latched since the pool was
// acquired, or nil.
func (pl *Pool) Fault() error { return pl.fault }

// PoolStats summarizes a pool's activity over one run, like the cell
// engine's ArenaStats segment counts. Every field is a function of the run alone — how
// warm the pool was when the run acquired it does not show.
type PoolStats struct {
	// Allocs counts packets claimed over the run.
	Allocs uint64
	// PeakLive is the maximum number of packets referenced at once.
	PeakLive int
	// LiveAtEnd is the number of packets still referenced when the
	// stats were taken; after a run's teardown a non-zero value is a
	// leaked reference.
	LiveAtEnd int
}

// Stats returns the pool's counters.
func (pl *Pool) Stats() PoolStats {
	return PoolStats{Allocs: pl.gets, PeakLive: pl.peak, LiveAtEnd: pl.live}
}

// pooled reports whether a pool handed p out (see Packet.self).
func (p *Packet) pooled() bool { return p.self == p }

// Retain adds a reference for a holder that keeps p beside its current
// owner. On a packet no pool handed out it does nothing.
func (p *Packet) Retain() {
	if !p.pooled() {
		return
	}
	if p.refs <= 0 {
		p.home.latch(ErrRetainAfterFree)
		return
	}
	p.refs++
}

// Release drops one reference. Dropping the last one zeroes the packet
// and returns it to its pool; the caller must not touch p afterwards. On
// a packet no pool handed out it does nothing.
func (p *Packet) Release() {
	if !p.pooled() {
		return
	}
	pl := p.home
	if p.refs <= 0 {
		pl.latch(ErrDoubleRelease)
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	*p = Packet{home: pl, self: p}
	pl.live--
	pl.free = append(pl.free, p)
}

// NewSibling returns a zeroed packet with one reference from the pool
// that handed out p, or a plain heap packet when no pool did. It serves
// stages that build a packet out of received ones without holding an
// IDGen (reassembly).
func (p *Packet) NewSibling() *Packet {
	if !p.pooled() {
		return &Packet{}
	}
	return p.home.get()
}

// warm keeps released pools — with their free lists — for the next run,
// next to the simulator pool (sim.Acquire): a replication sweep's second
// run onward allocates no packets.
var warm = sync.Pool{New: func() any { return &Pool{} }}

// AcquirePool returns an idle pool with zeroed counters, possibly holding
// recycled packets from earlier runs (which never affects results).
func AcquirePool() *Pool { return warm.Get().(*Pool) }

// ReleasePool returns pl for reuse by a later run. The caller must be
// done with every packet pl handed out. A pool that latched a fault is
// dropped instead: its bookkeeping is no longer trusted.
func ReleasePool(pl *Pool) {
	if pl.fault != nil {
		return
	}
	pl.live, pl.peak, pl.gets = 0, 0, 0
	warm.Put(pl)
}
