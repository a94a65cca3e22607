package sim

import (
	"fmt"
	"runtime/metrics"
	"time"
)

// This file gives the kernel per-run resource budgets: hard ceilings on
// events processed, virtual time, wall-clock time, and heap footprint.
// The virtual-time watchdog (check.go) is itself scheduled in virtual
// time, so it is blind to the one failure mode a discrete-event kernel
// can manufacture all by itself: a same-instant livelock, where events
// keep firing at delay zero and the clock never advances. The event
// budget counts fired events and therefore catches exactly that case;
// the wall-clock and heap budgets bound the run against slow or leaky
// pathologies that advance the clock but never finish.
//
// Enforcement is designed for the hot path: an unbudgeted simulator
// carries a nil pointer and pays one nil check per event. The cheap
// comparisons (event count, next event's virtual time) run on every
// event; the expensive probes (time.Now, runtime/metrics) run on a
// coarse stride, trading promptness — a budget overrun is noticed
// within one stride — for negligible steady-state cost. Like context
// polling, none of the checks read simulation state, so a run that
// stays within budget executes exactly the event sequence it would
// have executed unbudgeted.

// Budget kinds, as reported by BudgetError.Kind.
const (
	// BudgetEvents is the fired-event ceiling (catches same-instant
	// livelock, which no virtual-time mechanism can see).
	BudgetEvents = "events"
	// BudgetVirtual is the virtual-time ceiling.
	BudgetVirtual = "virtual-time"
	// BudgetWall is the wall-clock deadline (coarse; checked every
	// wallCheckStride events).
	BudgetWall = "wall-clock"
	// BudgetHeap is the process heap ceiling (coarse; checked every
	// heapCheckStride events).
	BudgetHeap = "heap"
)

// Strides for the expensive probes. A wall-clock poll is a time.Now
// call; a heap poll is a runtime/metrics read. At kernel event rates
// (~10M events/s) the strides bound the probe overhead well under 1%
// while still noticing an overrun within milliseconds.
const (
	wallCheckStride = 4096
	heapCheckStride = 1 << 16
)

// heapMetric is the runtime/metrics sample the heap budget reads: live
// heap object bytes, the closest cheap proxy for "this run is eating
// memory" that does not stop the world.
const heapMetric = "/memory/classes/heap/objects:bytes"

// LiveHeapBytes reads heapMetric: the quantity runtime.MemStats.HeapAlloc
// reports, without stopping the world as runtime.ReadMemStats does.
func LiveHeapBytes() uint64 {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// Budget bounds a single run's resource consumption. The zero value
// means "no budget". Per field: 0 leaves the field unset (callers that
// layer defaults, like the experiment engine, fill unset fields);
// negative explicitly disables that ceiling even when a default exists;
// positive enforces the ceiling.
type Budget struct {
	// MaxEvents caps fired events. This is the livelock guard: events
	// firing forever at the same instant never advance the clock, but
	// they always advance the fired counter.
	MaxEvents int64
	// MaxVirtual caps virtual time: the run halts rather than fire an
	// event scheduled past the ceiling.
	MaxVirtual time.Duration
	// WallClock caps real elapsed time since SetBudget, checked every
	// wallCheckStride events.
	WallClock time.Duration
	// MaxHeapBytes caps live heap object bytes (process-wide), checked
	// every heapCheckStride events.
	MaxHeapBytes int64
}

// Enabled reports whether any ceiling is set.
func (b Budget) Enabled() bool {
	return b.MaxEvents > 0 || b.MaxVirtual > 0 || b.WallClock > 0 || b.MaxHeapBytes > 0
}

// Or fills b's unset (zero) fields from def and returns the result.
// Negative fields stay negative: "explicitly unlimited" survives
// layering, so a caller can opt a single run out of an engine default.
func (b Budget) Or(def Budget) Budget {
	if b.MaxEvents == 0 {
		b.MaxEvents = def.MaxEvents
	}
	if b.MaxVirtual == 0 {
		b.MaxVirtual = def.MaxVirtual
	}
	if b.WallClock == 0 {
		b.WallClock = def.WallClock
	}
	if b.MaxHeapBytes == 0 {
		b.MaxHeapBytes = def.MaxHeapBytes
	}
	return b
}

// BudgetError reports a run halted because a resource budget was
// exhausted. It records which ceiling tripped, the configured limit,
// and the observed value at abort, in the kind's natural unit (events
// and bytes as counts, the time kinds as nanoseconds).
type BudgetError struct {
	// Kind is one of the Budget* constants.
	Kind string
	// Limit is the configured ceiling.
	Limit int64
	// Value is the observed value that exceeded the ceiling.
	Value int64
	// At is the virtual time the exhaustion was observed.
	At time.Duration
}

// Error implements error.
func (e *BudgetError) Error() string {
	switch e.Kind {
	case BudgetVirtual, BudgetWall:
		return fmt.Sprintf("sim: %s budget exhausted at virtual time %v: %v exceeds limit %v",
			e.Kind, e.At, time.Duration(e.Value), time.Duration(e.Limit))
	default:
		return fmt.Sprintf("sim: %s budget exhausted at virtual time %v: %d exceeds limit %d",
			e.Kind, e.At, e.Value, e.Limit)
	}
}

// budgetState is the per-simulator enforcement state behind the nil
// fast-path pointer.
type budgetState struct {
	limits    Budget
	wallStart time.Time
	// nextWall / nextHeap are the fired-event counts at which the next
	// coarse probe runs. They start at the current count so a fresh
	// budget is probed on the first event (a 1-byte heap ceiling trips
	// immediately, not 64k events later), then advance by the stride.
	nextWall uint64
	nextHeap uint64
	sample   []metrics.Sample
}

// SetBudget installs (or, with a budget whose every field is unset or
// negative, removes) the run's resource ceilings. The wall clock starts
// at the SetBudget call. Reset removes any installed budget, so pooled
// simulators never leak a ceiling into their next run.
func (s *Simulator) SetBudget(b Budget) {
	if !b.Enabled() {
		s.budget = nil
		return
	}
	st := &budgetState{
		limits:   b,
		nextWall: s.fired,
		nextHeap: s.fired,
	}
	if b.WallClock > 0 {
		st.wallStart = time.Now()
	}
	if b.MaxHeapBytes > 0 {
		st.sample = []metrics.Sample{{Name: heapMetric}}
	}
	s.budget = st
}

// exceeded enforces the installed budget against the next live event;
// Run and Step call it before firing (s.budget is known non-nil). On
// exhaustion it records a *BudgetError (first failure wins), stops the
// run, and reports true.
func (s *Simulator) exceeded(next *event) bool {
	st := s.budget
	b := &st.limits
	if b.MaxEvents > 0 && s.fired >= uint64(b.MaxEvents) {
		return s.budgetFail(BudgetEvents, b.MaxEvents, int64(s.fired))
	}
	if b.MaxVirtual > 0 && next.at > b.MaxVirtual {
		return s.budgetFail(BudgetVirtual, int64(b.MaxVirtual), int64(next.at))
	}
	if b.WallClock > 0 && s.fired >= st.nextWall {
		st.nextWall = s.fired + wallCheckStride
		if elapsed := time.Since(st.wallStart); elapsed > b.WallClock {
			return s.budgetFail(BudgetWall, int64(b.WallClock), int64(elapsed))
		}
	}
	if b.MaxHeapBytes > 0 && s.fired >= st.nextHeap {
		st.nextHeap = s.fired + heapCheckStride
		metrics.Read(st.sample)
		if v := st.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > uint64(b.MaxHeapBytes) {
			return s.budgetFail(BudgetHeap, b.MaxHeapBytes, int64(v.Uint64()))
		}
	}
	return false
}

// budgetFail records the exhaustion as the simulator's failure (first
// failure wins, matching checks and cancellation) and stops the run.
func (s *Simulator) budgetFail(kind string, limit, value int64) bool {
	if s.failure == nil {
		s.failure = &BudgetError{Kind: kind, Limit: limit, Value: value, At: s.now}
	}
	s.stopped = true
	return true
}
