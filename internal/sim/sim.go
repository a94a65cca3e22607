// Package sim implements the discrete-event simulation kernel the rest of
// the repository is built on. It plays the role the LBL Network Simulator
// (ns) played for the paper: a virtual clock, an ordered event queue with
// cancellable events, and deterministic seeded randomness.
//
// The kernel is deliberately single-threaded: a simulation run is a
// sequential replay of events in virtual-time order, which is what makes
// runs reproducible bit-for-bit for a given seed. Concurrency across
// *replications* (different seeds) is handled by callers (the
// experiment engine's replication loop, internal/experiment), never
// inside one simulation.
//
// The hot path is allocation-free in steady state: event structs are
// recycled through a per-simulator free list, the queue is one slice
// kept sorted latest-first while it holds at most 32 events (a pop moves
// nothing) and a monomorphic 4-ary min-heap past that (see heap.go), and
// cancellation tombstones events in O(1) instead of restructuring the
// queue. DESIGN.md §"Kernel data structures" documents the design and
// the determinism contract it preserves.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run (and Step) when the simulation was halted
// with Stop before the run condition was met.
var ErrStopped = errors.New("sim: stopped")

// Event is a handle to a scheduled callback, returned by
// Simulator.Schedule and accepted by Simulator.Cancel. It is a small
// value, cheap to copy and store; the zero value is a valid "no event"
// handle (never pending, cancelling it is a no-op).
//
// Handles are generation-checked: once the event fires or is cancelled,
// the kernel recycles the underlying struct for a future event, and every
// outstanding handle to it goes stale — Pending reports false and Cancel
// does nothing, exactly as with a fired event. Callers may therefore keep
// handles as long as they like without interfering with later events.
type Event struct {
	e   *event
	gen uint64
	at  time.Duration
}

// At reports the virtual time at which the event is (or was) scheduled to
// fire.
func (ev Event) At() time.Duration { return ev.at }

// Pending reports whether the event is still queued (not yet fired and
// not cancelled).
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.pos >= 0 && !ev.e.dead
}

// Simulator owns the virtual clock and the pending-event queue. The zero
// value is ready to use.
type Simulator struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	// dead counts tombstoned (lazily cancelled) events still occupying
	// queue slots; Pending subtracts it and compact() resets it.
	dead int
	// free is the recycled-event list; see heap.go.
	free    []*event
	stopped bool

	// fired counts events executed; useful for tests and for detecting
	// runaway simulations.
	fired uint64
	// stats holds the remaining kernel counters (see Stats).
	stats Stats

	// checks are the registered invariants (see check.go); checksOn marks
	// the periodic runner as started, and failure records the first
	// invariant violation or watchdog stall.
	checks   []check
	checksOn bool
	failure  error

	// ctx, when non-nil, is polled at event boundaries (see context.go);
	// once it ends the run halts with a *CancelError.
	ctx context.Context

	// budget, when non-nil, holds the run's resource ceilings (see
	// budget.go); exhaustion halts the run with a *BudgetError. Nil is
	// the fast path: an unbudgeted run pays one nil check per event.
	budget *budgetState
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now reports the current virtual time (elapsed since the start of the
// simulation).
func (s *Simulator) Now() time.Duration { return s.now }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Stats are the kernel's own counters for one run: how much cancellation
// the workload does and what it costs the queue. They read no simulation
// state and never influence event order.
type Stats struct {
	// Fired counts events executed.
	Fired uint64
	// Cancelled counts pending events withdrawn by Cancel or Timer.Stop;
	// each leaves a tombstone in the queue until it surfaces, is swept, or
	// its timer is armed again.
	Cancelled uint64
	// Compactions counts tombstone sweeps of the whole heap.
	Compactions uint64
	// HeapHighWater is the largest number of queue slots in use at once,
	// in either layout (sorted or heap), tombstones included.
	HeapHighWater int
}

// Stats returns the kernel counters accumulated since New or Reset.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Fired = s.fired
	return st
}

// Pending reports how many events are queued (cancelled events do not
// count, even while their tombstones still occupy queue slots).
func (s *Simulator) Pending() int { return s.queue.len() - s.dead }

// Schedule queues fn to run after delay of virtual time. A negative delay
// is treated as zero (fire as soon as possible, after already-queued events
// at the current instant). The returned Event may be passed to Cancel.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	e := s.alloc()
	e.at = s.now + delay
	e.seq = s.seq
	e.fn = fn
	s.seq++
	s.queue.push(e)
	if n := s.queue.len(); n > s.stats.HeapHighWater {
		s.stats.HeapHighWater = n
	}
	return Event{e: e, gen: e.gen, at: e.at}
}

// rearm is Timer.Set's scheduling step: queue fn after delay, replacing
// the deadline ev stands for. While ev's struct still occupies a queue
// slot — pending, or tombstoned by an earlier Stop — it is given the
// (at, seq) key a fresh Schedule would take and moved to its new place,
// so a reset leaves nothing behind. Pop order depends on the keys alone,
// so this is indistinguishable from Cancel followed by Schedule.
func (s *Simulator) rearm(ev Event, delay time.Duration, fn func()) Event {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.pos < 0 {
		return s.Schedule(delay, fn)
	}
	if delay < 0 {
		delay = 0
	}
	if e.dead {
		e.dead = false
		s.dead--
	}
	e.at = s.now + delay
	e.seq = s.seq
	e.fn = fn
	s.seq++
	s.queue.fix(int(e.pos))
	return Event{e: e, gen: e.gen, at: e.at}
}

// ScheduleAt queues fn at an absolute virtual time. Times in the past are
// clamped to now.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) Event {
	return s.Schedule(at-s.now, fn)
}

// Cancel removes a pending event from the queue. Cancelling a zero,
// stale, fired, or already-cancelled handle is a no-op, so callers do not
// need to track timer state precisely.
//
// Cancellation is lazy: the event is tombstoned in place (O(1)) and its
// queue slot is reclaimed when it reaches the front or when compaction
// sweeps the queue, so cancel-heavy workloads (every EBSN timer reset is
// a cancel) never pay the restructuring of an eager removal.
func (s *Simulator) Cancel(ev Event) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.pos < 0 || e.dead {
		return
	}
	e.dead = true
	s.dead++
	s.stats.Cancelled++
	if s.dead > compactMin && s.dead*2 > s.queue.len() {
		s.compact()
	}
}

// Stop halts the currently executing Run after the current event returns.
// Step also refuses to execute further events until the next Run resets
// the stop.
func (s *Simulator) Stop() { s.stopped = true }

// peekLive returns the earliest live event without removing it, dropping
// and recycling any tombstones that have reached the front. Returns nil
// when no live events remain.
func (s *Simulator) peekLive() *event {
	for s.queue.len() > 0 {
		first := s.queue.min()
		if !first.dead {
			return first
		}
		s.queue.popMin()
		s.dead--
		s.recycle(first)
	}
	return nil
}

// fire pops the (live) earliest event, advances the clock, recycles the
// struct, and runs the callback.
func (s *Simulator) fire(next *event) {
	s.queue.popMin()
	s.now = next.at
	s.fired++
	fn := next.fn
	// Recycle before the callback runs: the firing event is no longer
	// pending, and its struct can be handed straight back to a Schedule
	// performed inside the callback.
	s.recycle(next)
	fn()
}

// Run executes events in order until the queue drains, until the virtual
// clock would pass until (events at exactly until still fire), or until
// Stop is called. A non-positive until runs the queue to exhaustion.
// It returns ErrStopped if halted by Stop, the recorded *CancelError
// if the context bound with Bind ended, and the recorded *BudgetError
// if a resource budget installed with SetBudget was exhausted.
func (s *Simulator) Run(until time.Duration) error {
	s.stopped = false
	for {
		next := s.peekLive()
		if next == nil {
			break
		}
		if s.cancelled() {
			return s.failure
		}
		if s.stopped {
			return ErrStopped
		}
		if s.budget != nil && s.exceeded(next) {
			return s.failure
		}
		if until > 0 && next.at > until {
			// Leave future events queued; advance the clock to the
			// horizon so Now() reflects the full observation window.
			s.now = until
			return nil
		}
		s.fire(next)
	}
	if until > 0 && s.now < until {
		s.now = until
	}
	return nil
}

// RunAll executes events until the queue drains or Stop is called.
func (s *Simulator) RunAll() error { return s.Run(0) }

// Step executes exactly one event. It reports whether one was executed,
// and — like Run — surfaces the halt condition as an error: ErrStopped
// after Stop (or a halted check/watchdog), or the recorded failure (a
// *CheckError, *StallError, *CancelError, or *BudgetError) when one
// exists. An empty queue is (false, nil): exhaustion is not an error.
func (s *Simulator) Step() (bool, error) { return s.StepUntil(0) }

// StepUntil is Step bounded the way Run(until) is: when the earliest
// pending event lies past until, it executes nothing, advances the clock
// to until and reports (false, nil). A non-positive until is no bound.
func (s *Simulator) StepUntil(until time.Duration) (bool, error) {
	if s.cancelled() {
		return false, s.failure
	}
	if s.stopped {
		if s.failure != nil {
			return false, s.failure
		}
		return false, ErrStopped
	}
	next := s.peekLive()
	if next == nil {
		return false, nil
	}
	if until > 0 && next.at > until {
		s.now = max(s.now, until)
		return false, nil
	}
	if s.budget != nil && s.exceeded(next) {
		return false, s.failure
	}
	s.fire(next)
	return true, nil
}

// Advance does in place what scheduling a callback at t (ScheduleAt) and
// then Step-ping to it would do, for a caller that is itself that
// callback's body: the clock moves to t, the sequence and fired counters
// each go up by one, and the context poll and budget strides see one
// event. It refuses, reporting false, whenever that Step would not fire
// the callback next or would halt instead:
//
//   - a live pending event is due at or before t (one queued at t has a
//     smaller sequence number than the callback would get, so it fires
//     first);
//   - Stop was called or a failure is recorded;
//   - the bound context has ended and this event count is a poll point;
//   - a budget ceiling would trip (MaxEvents, MaxVirtual), or a wall or
//     heap probe falls due — the probe is left to the next Step, which
//     records any *BudgetError at the fired count and clock it would
//     have seen anyway.
//
// A refused caller schedules its callback as usual. A refusal changes
// nothing but this: tombstones at the front of the queue are swept, as
// Step would sweep them. A t before Now is taken as Now, as ScheduleAt does.
// The contract is Step's: the kernel does not know a bound given to Run
// or StepUntil, so a caller driven by one must not advance past it.
func (s *Simulator) Advance(t time.Duration) bool {
	if t < s.now {
		t = s.now
	}
	if s.stopped || s.failure != nil {
		return false
	}
	if s.ctx != nil && s.fired%ctxPollStride == 0 && s.ctx.Err() != nil {
		return false
	}
	if st := s.budget; st != nil {
		b := &st.limits
		if b.MaxEvents > 0 && s.fired >= uint64(b.MaxEvents) ||
			b.MaxVirtual > 0 && t > b.MaxVirtual ||
			b.WallClock > 0 && s.fired >= st.nextWall ||
			b.MaxHeapBytes > 0 && s.fired >= st.nextHeap {
			return false
		}
	}
	// The scheduled callback would have occupied one more slot, measured
	// before Step swept any tombstone.
	slots := s.queue.len() + 1
	if next := s.peekLive(); next != nil && next.at <= t {
		return false
	}
	if slots > s.stats.HeapHighWater {
		s.stats.HeapHighWater = slots
	}
	s.now = t
	s.seq++
	s.fired++
	return true
}

// String summarizes the simulator state, for debugging.
func (s *Simulator) String() string {
	return fmt.Sprintf("sim(now=%v pending=%d fired=%d)", s.now, s.Pending(), s.fired)
}
