package sim

import (
	"fmt"
	"time"
)

// This file adds runtime robustness machinery to the kernel: registered
// invariant checks executed periodically in virtual time, a built-in
// consistency check of the event heap itself, and a no-progress watchdog
// that halts a stalled simulation with a diagnostic snapshot instead of
// letting it burn events until the horizon.
//
// Checks are observational: a check function must not mutate simulation
// state. A failing check records a *CheckError on the simulator and stops
// the run; callers inspect Failure() after Run/Step return.

// CheckError reports a failed invariant check.
type CheckError struct {
	// Name identifies the registered check.
	Name string
	// At is the virtual time the violation was detected.
	At time.Duration
	// Err is the violation the check reported.
	Err error
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("sim: invariant %q violated at %v: %v", e.Name, e.At, e.Err)
}

// Unwrap exposes the underlying violation.
func (e *CheckError) Unwrap() error { return e.Err }

// StallError reports a watchdog abort: the progress metric did not change
// for at least the configured stall window.
type StallError struct {
	// At is the virtual time the stall was declared.
	At time.Duration
	// Since is the virtual time of the last observed progress change.
	Since time.Duration
	// Progress is the stuck progress value.
	Progress int64
	// Snapshot is the diagnostic state dump captured at abort time.
	Snapshot string
}

// Error implements error.
func (e *StallError) Error() string {
	msg := fmt.Sprintf("sim: watchdog: no progress since %v (aborted at %v, progress=%d)",
		e.Since, e.At, e.Progress)
	if e.Snapshot != "" {
		msg += "\n" + e.Snapshot
	}
	return msg
}

// check is one registered invariant.
type check struct {
	name string
	fn   func() error
}

// AddCheck registers an invariant under name. Registered checks run
// periodically once EnableChecks starts the runner, and on demand via
// CheckNow. fn must not mutate simulation state; it returns a non-nil
// error to report a violation.
func (s *Simulator) AddCheck(name string, fn func() error) {
	s.checks = append(s.checks, check{name: name, fn: fn})
}

// EnableChecks starts periodic execution of every registered check (plus
// the kernel's own event-heap consistency check) every interval of virtual
// time. A non-positive interval defaults to one second. On the first
// violation the simulator records a *CheckError (see Failure) and stops.
//
// The recurring check event keeps the queue non-empty, so a run driven by
// RunAll will not drain; drive checked simulations with Run(horizon) or a
// Step loop with an exit condition.
func (s *Simulator) EnableChecks(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	if s.checksOn {
		return
	}
	s.checksOn = true
	var tick func()
	tick = func() {
		if s.failure != nil {
			return // stop rescheduling once failed
		}
		if err := s.CheckNow(); err != nil {
			return
		}
		s.Schedule(interval, tick)
	}
	s.Schedule(interval, tick)
}

// CheckNow runs the kernel heap check and every registered check
// immediately. The first violation is recorded as the simulator's failure,
// stops the run, and is returned.
func (s *Simulator) CheckNow() error {
	if err := s.checkHeap(); err != nil {
		return s.fail("event-heap", err)
	}
	for _, c := range s.checks {
		if err := c.fn(); err != nil {
			return s.fail(c.name, err)
		}
	}
	return nil
}

// fail records the first failure and halts the run.
func (s *Simulator) fail(name string, err error) error {
	if s.failure == nil {
		s.failure = &CheckError{Name: name, At: s.now, Err: err}
		s.Stop()
	}
	return s.failure
}

// Fail lets an external monitor (e.g. the conformance oracle) record a
// failure under the given name and halt the run, exactly as a registered
// check would. Only the first failure is kept; it is returned either way.
func (s *Simulator) Fail(name string, err error) error { return s.fail(name, err) }

// Failure returns the invariant violation or watchdog stall that halted
// the simulation, or nil if none has been recorded.
func (s *Simulator) Failure() error { return s.failure }

// checkHeap verifies the pending-event queue's structural invariants in
// whichever layout it is in: every event knows its own slot, nothing is
// scheduled in the past, the tombstone count matches the lazily-cancelled
// events still occupying slots, and the order holds — in the sorted
// layout each slot is strictly later than the next and there are at most
// sortedMax of them, in the heap layout every parent orders at or before
// its four children. A violation here is kernel corruption — timers
// could fire out of order or never.
func (s *Simulator) checkHeap() error {
	dead := 0
	a := s.queue.a
	if !s.queue.heap && len(a) > sortedMax {
		return fmt.Errorf("sorted layout holds %d events, above its bound %d", len(a), sortedMax)
	}
	for i, ev := range a {
		if ev == nil {
			return fmt.Errorf("nil event at queue index %d", i)
		}
		if int(ev.pos) != i {
			return fmt.Errorf("event at queue index %d records index %d", i, ev.pos)
		}
		if ev.at < s.now {
			return fmt.Errorf("event at queue index %d scheduled at %v, before now (%v)", i, ev.at, s.now)
		}
		if ev.dead {
			dead++
		}
		if !s.queue.heap {
			if i > 0 && !eventLess(ev, a[i-1]) {
				return fmt.Errorf("sorted order violated between slot %d (t=%v seq=%d) and slot %d (t=%v seq=%d)",
					i-1, a[i-1].at, a[i-1].seq, i, ev.at, ev.seq)
			}
			continue
		}
		for child := 4*i + 1; child <= 4*i+4 && child < len(a); child++ {
			if eventLess(a[child], ev) {
				return fmt.Errorf("heap order violated between parent %d (t=%v seq=%d) and child %d (t=%v seq=%d)",
					i, ev.at, ev.seq, child, a[child].at, a[child].seq)
			}
		}
	}
	if dead != s.dead {
		return fmt.Errorf("tombstone count %d does not match %d dead events in the queue", s.dead, dead)
	}
	return nil
}

// StartWatchdog arms a no-progress watchdog: every stall of virtual time
// it samples progress(); if the value is unchanged since the previous
// sample, the simulator records a *StallError carrying snapshot() and
// stops. Detection latency is therefore between stall and 2*stall of
// virtual time. A non-positive stall is a no-op; snapshot may be nil.
//
// progress should be a monotone counter of useful work (e.g. acknowledged
// bytes); event counts are a poor choice because a livelocked simulation
// still fires events.
func (s *Simulator) StartWatchdog(stall time.Duration, progress func() int64, snapshot func() string) {
	if stall <= 0 || progress == nil {
		return
	}
	last := progress()
	lastChange := s.now
	var tick func()
	tick = func() {
		if s.failure != nil {
			return
		}
		cur := progress()
		if cur != last {
			last = cur
			lastChange = s.now
			s.Schedule(stall, tick)
			return
		}
		snap := ""
		if snapshot != nil {
			snap = snapshot()
		}
		s.failure = &StallError{At: s.now, Since: lastChange, Progress: cur, Snapshot: snap}
		s.Stop()
	}
	s.Schedule(stall, tick)
}

// Monotonic returns a check that fails when sample() returns a value
// smaller than any previously observed one — the sequence-number
// monotonicity invariant (snd_una, rcv_nxt, delivered-byte counters must
// never move backwards).
func Monotonic(label string, sample func() int64) func() error {
	prev := int64(0)
	seeded := false
	return func() error {
		cur := sample()
		if seeded && cur < prev {
			return fmt.Errorf("%s went backwards: %d -> %d", label, prev, cur)
		}
		prev = cur
		seeded = true
		return nil
	}
}

// Conservation returns a check that fails when have() exceeds limit() —
// the packet/byte conservation invariant (a hop cannot deliver more than
// was sent to it).
func Conservation(label string, limit, have func() int64) func() error {
	return func() error {
		l, h := limit(), have()
		if h > l {
			return fmt.Errorf("%s conservation violated: have %d, limit %d", label, h, l)
		}
		return nil
	}
}
