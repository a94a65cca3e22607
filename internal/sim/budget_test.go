package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// budgetErr runs the simulator to exhaustion and requires the run to
// halt with a *BudgetError of the given kind.
func budgetErr(t *testing.T, s *Simulator, kind string) *BudgetError {
	t.Helper()
	err := s.RunAll()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("RunAll returned %v, want *BudgetError", err)
	}
	if be.Kind != kind {
		t.Fatalf("budget kind = %q, want %q (err: %v)", be.Kind, kind, be)
	}
	if got := s.Failure(); got != err {
		t.Fatalf("Failure() = %v, want the returned error %v", got, err)
	}
	return be
}

// TestEventBudgetCatchesSameInstantLivelock is the reason the event
// budget exists: an event that reschedules itself at delay zero never
// advances the virtual clock, so the virtual-time watchdog (which is
// itself a scheduled event) can never fire. The fired-event counter
// still advances, and the budget halts the run.
func TestEventBudgetCatchesSameInstantLivelock(t *testing.T) {
	s := New()
	// Arm a watchdog exactly as core does; it must stay silent because
	// its tick can never be reached while the clock is frozen.
	s.StartWatchdog(time.Millisecond, func() int64 { return 0 }, nil)
	var spins int
	var spin func()
	spin = func() {
		spins++
		s.Schedule(0, spin)
	}
	s.Schedule(0, spin)
	s.SetBudget(Budget{MaxEvents: 5000})

	be := budgetErr(t, s, BudgetEvents)
	if be.Limit != 5000 {
		t.Fatalf("Limit = %d, want 5000", be.Limit)
	}
	if be.Value < 5000 {
		t.Fatalf("Value = %d, want >= 5000", be.Value)
	}
	if be.At != 0 {
		t.Fatalf("At = %v, want 0 (clock must not have advanced)", be.At)
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
	var stall *StallError
	if errors.As(s.Failure(), &stall) {
		t.Fatalf("watchdog fired (%v); livelock must be caught by the event budget, not the watchdog", stall)
	}
	// The budget stops the run before firing event Limit+1, and every
	// fired event was a spin (the watchdog tick sits at 1ms, unreachable).
	if spins != 5000 {
		t.Fatalf("spins = %d, want exactly 5000", spins)
	}
}

func TestVirtualTimeBudget(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		at := at
		s.ScheduleAt(at, func() { fired = append(fired, at) })
	}
	s.SetBudget(Budget{MaxVirtual: 3 * time.Second})

	be := budgetErr(t, s, BudgetVirtual)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want the two events within the 3s budget", fired)
	}
	if time.Duration(be.Value) != 5*time.Second {
		t.Fatalf("Value = %v, want the offending event time 5s", time.Duration(be.Value))
	}
	if time.Duration(be.Limit) != 3*time.Second {
		t.Fatalf("Limit = %v, want 3s", time.Duration(be.Limit))
	}
	if s.Now() > 3*time.Second {
		t.Fatalf("Now = %v advanced past the virtual budget", s.Now())
	}
}

func TestWallClockBudget(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.Schedule(time.Microsecond, tick) }
	s.Schedule(0, tick)
	// 1ns wall budget: the first strided poll (after wallCheckStride
	// events) is already past it.
	s.SetBudget(Budget{WallClock: time.Nanosecond})

	be := budgetErr(t, s, BudgetWall)
	if be.Value <= be.Limit {
		t.Fatalf("Value %d should exceed Limit %d", be.Value, be.Limit)
	}
}

func TestHeapBudget(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.Schedule(time.Microsecond, tick) }
	s.Schedule(0, tick)
	// A 1-byte heap ceiling trips on the very first probe, which runs on
	// the first event (probes start at the current fired count).
	s.SetBudget(Budget{MaxHeapBytes: 1})

	be := budgetErr(t, s, BudgetHeap)
	if be.Value <= 1 {
		t.Fatalf("Value = %d, want the observed heap size", be.Value)
	}
}

func TestStepSurfacesBudgetError(t *testing.T) {
	s := New()
	var spin func()
	spin = func() { s.Schedule(0, spin) }
	s.Schedule(0, spin)
	s.SetBudget(Budget{MaxEvents: 3})

	var last error
	steps := 0
	for {
		ran, err := s.Step()
		if err != nil {
			last = err
			break
		}
		if !ran {
			t.Fatal("queue drained; expected the budget to trip first")
		}
		steps++
		if steps > 10 {
			t.Fatal("budget never tripped")
		}
	}
	var be *BudgetError
	if !errors.As(last, &be) || be.Kind != BudgetEvents {
		t.Fatalf("Step returned %v, want events *BudgetError", last)
	}
	if steps != 3 {
		t.Fatalf("executed %d events, want exactly 3", steps)
	}
	// Subsequent Steps keep returning the recorded failure.
	if _, err := s.Step(); !errors.Is(err, last) && err != last {
		t.Fatalf("second Step returned %v, want the recorded failure", err)
	}
}

func TestBudgetDisabledAndReset(t *testing.T) {
	s := New()
	if s.budget != nil {
		t.Fatalf("fresh simulator has budget %+v", s.budget.limits)
	}
	s.SetBudget(Budget{})
	if s.budget != nil {
		t.Fatal("zero budget must leave the nil fast path")
	}
	// Negative fields are "explicitly unlimited": still no enforcement.
	s.SetBudget(Budget{MaxEvents: -1, MaxVirtual: -1, WallClock: -1, MaxHeapBytes: -1})
	if s.budget != nil {
		t.Fatal("all-negative budget must leave the nil fast path")
	}

	s.SetBudget(Budget{MaxEvents: 10})
	if s.budget == nil || s.budget.limits.MaxEvents != 10 {
		t.Fatalf("budget = %+v, want MaxEvents 10", s.budget)
	}
	s.Reset()
	if s.budget != nil {
		t.Fatal("Reset must clear the budget (pooled simulators must not leak ceilings)")
	}
	// And the reset simulator runs unbudgeted.
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 100 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(0, tick)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll after Reset: %v", err)
	}
	if n != 100 {
		t.Fatalf("fired %d events, want 100", n)
	}
}

func TestBudgetOrLayersDefaults(t *testing.T) {
	def := Budget{MaxEvents: 1 << 31, WallClock: 10 * time.Minute}
	got := Budget{}.Or(def)
	if got != def {
		t.Fatalf("zero.Or(def) = %+v, want %+v", got, def)
	}
	// Set fields win; negative (explicitly unlimited) fields survive.
	got = Budget{MaxEvents: 7, WallClock: -1}.Or(def)
	if got.MaxEvents != 7 || got.WallClock != -1 {
		t.Fatalf("Or = %+v, want MaxEvents 7 and WallClock -1", got)
	}
	if got.MaxVirtual != 0 || got.MaxHeapBytes != 0 {
		t.Fatalf("Or = %+v, unset fields with unset defaults must stay zero", got)
	}
	if (Budget{MaxEvents: -1, MaxVirtual: -1, WallClock: -1, MaxHeapBytes: -1}).Enabled() {
		t.Fatal("all-negative budget must not be Enabled")
	}
	if !(Budget{MaxHeapBytes: 1}).Enabled() {
		t.Fatal("heap-only budget must be Enabled")
	}
}

func TestBudgetErrorText(t *testing.T) {
	e := &BudgetError{Kind: BudgetEvents, Limit: 100, Value: 100, At: time.Second}
	for _, want := range []string{"events", "100", "1s"} {
		if !strings.Contains(e.Error(), want) {
			t.Fatalf("error %q missing %q", e.Error(), want)
		}
	}
	w := &BudgetError{Kind: BudgetWall, Limit: int64(time.Minute), Value: int64(2 * time.Minute), At: 0}
	for _, want := range []string{"wall-clock", "1m", "2m"} {
		if !strings.Contains(w.Error(), want) {
			t.Fatalf("error %q missing %q", w.Error(), want)
		}
	}
}

// TestBudgetFirstFailureWins: an earlier recorded failure (an invariant
// violation) is not overwritten by a later budget exhaustion.
func TestBudgetFirstFailureWins(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxEvents: 5})
	boom := errors.New("boom")
	s.Schedule(0, func() { s.Fail("inv", boom) })
	var spin func()
	spin = func() { s.Schedule(0, spin) }
	s.Schedule(0, spin)

	err := s.RunAll()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunAll returned %v, want ErrStopped from the failing check's Stop", err)
	}
	var ce *CheckError
	if !errors.As(s.Failure(), &ce) {
		t.Fatalf("Failure() = %v, want the first-recorded *CheckError (budget must not overwrite it)", s.Failure())
	}
}
