package sim

import "time"

// Timer is a restartable one-shot timer bound to a Simulator. It mirrors
// the retransmission-timer idiom in TCP implementations: Set replaces any
// previous deadline, Stop cancels, and the callback fires at most once per
// Set. The zero value is not usable; create timers with NewTimer.
type Timer struct {
	sim *Simulator
	ev  Event
	fn  func()
	// fire is the pre-bound expiry wrapper, allocated once at NewTimer so
	// re-arming the timer — the exact operation EBSN multiplies, one reset
	// per failed wireless transmission attempt — schedules no new closure.
	fire func()

	// sets counts how many times the timer has been (re)armed; exposed for
	// instrumentation (e.g. counting EBSN-induced timer resets).
	sets uint64
}

// NewTimer returns a timer that invokes fn on expiry. fn runs in event
// context (virtual time).
func NewTimer(s *Simulator, fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fire = func() {
		t.ev = Event{}
		t.fn()
	}
	return t
}

// Set arms the timer to fire after d, replacing any pending deadline.
// Re-arming allocates nothing and leaves no tombstone: the timer's queue
// entry is re-keyed in place (see Simulator.rearm) and keeps the
// pre-bound expiry callback.
func (t *Timer) Set(d time.Duration) {
	t.sets++
	t.ev = t.sim.rearm(t.ev, d, t.fire)
}

// Stop cancels any pending deadline. Stopping an idle timer is a no-op.
// The handle is kept so that the next Set can take over the tombstone's
// queue slot if it is still there.
func (t *Timer) Stop() {
	t.sim.Cancel(t.ev)
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Deadline reports the virtual time the timer will fire, or a negative
// value if the timer is idle.
func (t *Timer) Deadline() time.Duration {
	if !t.ev.Pending() {
		return -1
	}
	return t.ev.At()
}

// Sets reports how many times the timer has been armed since creation.
func (t *Timer) Sets() uint64 { return t.sets }
