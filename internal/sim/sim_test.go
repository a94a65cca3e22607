package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// errInjected is the sentinel violation used by check-driven tests.
var errInjected = errors.New("injected violation")

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	s := New()
	var at time.Duration
	s.Schedule(time.Second, func() {
		s.ScheduleAt(5*time.Second, func() { at = s.Now() })
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if at != 5*time.Second {
		t.Errorf("absolute event fired at %v, want 5s", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event not pending after Schedule")
	}
	s.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event pending after Cancel")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	s.Cancel(ev)
	s.Cancel(Event{})
}

func TestCancelMiddleOfQueue(t *testing.T) {
	s := New()
	var got []int
	var evs []Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, s.Schedule(time.Duration(i)*time.Second, func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 2 {
		s.Cancel(evs[i])
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for idx, v := range got {
		if v%2 == 0 {
			t.Errorf("cancelled event %d fired", v)
		}
		if idx > 0 && got[idx-1] > v {
			t.Errorf("out of order after cancels: %v", got)
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1*time.Second, func() { fired++ })
	s.Schedule(2*time.Second, func() { fired++ })
	s.Schedule(3*time.Second, func() { fired++ })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (event at horizon inclusive)", fired)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v, want horizon 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	// Resuming runs the remainder.
	if err := s.RunAll(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if fired != 3 {
		t.Errorf("fired = %d after resume, want 3", fired)
	}
}

func TestRunAdvancesClockToHorizonWhenIdle(t *testing.T) {
	s := New()
	if err := s.Run(7 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != 7*time.Second {
		t.Errorf("Now = %v, want 7s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1*time.Second, func() {
		fired++
		s.Stop()
	})
	s.Schedule(2*time.Second, func() { fired++ })
	if err := s.RunAll(); err != ErrStopped {
		t.Fatalf("RunAll = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// A fresh Run clears the stop flag.
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll after stop: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestStep(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	ok, err := s.Step()
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !ok {
		t.Fatal("Step returned false with a pending event")
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	ok, err = s.Step()
	if err != nil {
		t.Fatalf("Step on empty queue: %v", err)
	}
	if ok {
		t.Error("Step returned true on empty queue")
	}
}

// TestStepUntilStopsAtHorizon: StepUntil fires events up to and at its
// bound, like Run(until), and leaves a later one queued with the clock
// advanced to the bound — never past it, never back.
func TestStepUntilStopsAtHorizon(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(2*time.Second, func() { fired++ })
	s.Schedule(3*time.Second, func() { fired++ })
	for i, want := range []bool{true, true, false, false} {
		if ok, err := s.StepUntil(2500 * time.Millisecond); ok != want || err != nil {
			t.Fatalf("StepUntil #%d = (%v, %v), want (%v, nil)", i, ok, err, want)
		}
	}
	if fired != 2 || s.Now() != 2500*time.Millisecond || s.Pending() != 1 {
		t.Errorf("fired %d, now %v, pending %d; want 2 fired, clock at the bound, 1 queued", fired, s.Now(), s.Pending())
	}
	if ok, _ := s.StepUntil(time.Second); ok || s.Now() != 2500*time.Millisecond {
		t.Errorf("a bound in the past moved the clock to %v (ok=%v)", s.Now(), ok)
	}
	if ok, _ := s.StepUntil(3 * time.Second); !ok || fired != 3 {
		t.Error("the event at the bound did not fire")
	}
}

// TestStepHonorsStop verifies the parity between Step and Run: once Stop
// halts the simulation (directly or via a failed check), Step refuses to
// execute further events and surfaces the halt as an error, exactly like
// Run would.
func TestStepHonorsStop(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(time.Second, func() { fired++; s.Stop() })
	s.Schedule(2*time.Second, func() { fired++ })
	if ok, err := s.Step(); !ok || err != nil {
		t.Fatalf("first Step = (%v, %v), want (true, nil)", ok, err)
	}
	ok, err := s.Step()
	if ok {
		t.Fatal("Step executed an event after Stop")
	}
	if err != ErrStopped {
		t.Fatalf("Step after Stop returned %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d after Stop, want 1", fired)
	}
	// Run clears the stop, and Step works again afterwards.
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll after stop: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d after resume, want 2", fired)
	}
}

// TestStepSurfacesCheckFailure: a failed invariant check stops the
// simulator, and Step reports the recorded *CheckError instead of
// silently executing past it (the bug this test pins down: Step used to
// skip the stopped check entirely).
func TestStepSurfacesCheckFailure(t *testing.T) {
	s := New()
	bad := false
	s.AddCheck("bad", func() error {
		if bad {
			return errInjected
		}
		return nil
	})
	s.EnableChecks(time.Second)
	fired := 0
	s.Schedule(500*time.Millisecond, func() { fired++; bad = true })
	s.Schedule(1500*time.Millisecond, func() { fired++ })
	for {
		ok, err := s.Step()
		if err != nil {
			var ce *CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("Step error = %v, want *CheckError", err)
			}
			break
		}
		if !ok {
			t.Fatal("queue drained without surfacing the check failure")
		}
	}
	if fired != 1 {
		t.Errorf("fired = %d events, want 1 (the one before the failed check)", fired)
	}
	if s.Failure() == nil {
		t.Error("Failure() is nil after a failed check")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var times []time.Duration
	var chain func(depth int)
	chain = func(depth int) {
		times = append(times, s.Now())
		if depth < 5 {
			s.Schedule(time.Second, func() { chain(depth + 1) })
		}
	}
	s.Schedule(0, func() { chain(0) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(times) != 6 {
		t.Fatalf("chain fired %d times, want 6", len(times))
	}
	for i, at := range times {
		if want := time.Duration(i) * time.Second; at != want {
			t.Errorf("chain[%d] at %v, want %v", i, at, want)
		}
	}
}

// TestPropertyOrdering is a property-based check: for any set of delays,
// events fire in nondecreasing time order and the clock never goes
// backwards.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCancelSubset: cancelling any subset of events leaves exactly
// the complement firing, still in order.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		evs := make([]Event, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = s.Schedule(time.Duration(d)*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range evs {
			if i < len(mask) && mask[i] {
				s.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		for i := range delays {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimerSetReplacesDeadline(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Set(5 * time.Second)
	tm.Set(1 * time.Second) // replaces, does not add
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != time.Second {
		t.Errorf("fired at %v, want 1s", s.Now())
	}
	if tm.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", tm.Sets())
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Set(time.Second)
	if !tm.Pending() {
		t.Fatal("timer not pending after Set")
	}
	if tm.Deadline() != time.Second {
		t.Errorf("Deadline = %v, want 1s", tm.Deadline())
	}
	tm.Stop()
	if tm.Pending() {
		t.Fatal("timer pending after Stop")
	}
	if tm.Deadline() >= 0 {
		t.Errorf("Deadline = %v for idle timer, want negative", tm.Deadline())
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != 0 {
		t.Errorf("stopped timer fired %d times", fired)
	}
	tm.Stop() // idempotent
}

func TestTimerRestartAfterFire(t *testing.T) {
	s := New()
	fired := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		fired++
		if fired < 3 {
			tm.Set(time.Second)
		}
	})
	tm.Set(time.Second)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a42 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a42.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Drawing from the child must not affect the parent's future stream
	// relative to a parent that split but never used the child.
	parent2 := NewRNG(7)
	_ = parent2.Split()
	for i := 0; i < 50; i++ {
		child.Float64()
	}
	for i := 0; i < 50; i++ {
		if parent.Float64() != parent2.Float64() {
			t.Fatal("child draws perturbed parent stream")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	mean := sum / n
	if mean < 2.45 || mean > 2.55 {
		t.Errorf("Exp(2.5) empirical mean = %v", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("non-positive mean should return 0")
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	g := NewRNG(9)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.29 || rate > 0.31 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestPoissonAtLeastOne(t *testing.T) {
	g := NewRNG(5)
	if g.PoissonAtLeastOne(0) {
		t.Error("mean 0 should never report errors")
	}
	if g.PoissonAtLeastOne(-1) {
		t.Error("negative mean should never report errors")
	}
	// mean 20: probability 1-e^-20 ~ 1; should essentially always be true.
	for i := 0; i < 1000; i++ {
		if !g.PoissonAtLeastOne(20) {
			t.Fatal("mean 20 reported no errors (p ~ 2e-9)")
		}
	}
	// mean 0.1: empirical rate should track 1-e^-0.1 ~ 0.0952.
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if g.PoissonAtLeastOne(0.1) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.090 || rate > 0.100 {
		t.Errorf("P(N>=1 | mean 0.1) = %v, want ~0.0952", rate)
	}
}

// TestPoissonAtLeastOneMemoIsExact compares the remembered probabilities
// with the formula draw for draw: two generators on one seed, one through
// PoissonAtLeastOne and one through Float64 and expm1, over more distinct
// means than the memo holds (so entries are evicted and refilled), in
// runs and in rotation, edge values included.
func TestPoissonAtLeastOneMemoIsExact(t *testing.T) {
	means := []float64{
		1.2288e-2, 3.2e-4, 122.88, 3.2, 0.3, 7.77e-3, // two states x three sizes
		math.SmallestNonzeroFloat64, 1e-300, 745.2, math.Inf(1), math.NaN(), 0, -1,
	}
	got, want := NewRNG(77), NewRNG(77)
	pick := NewRNG(78)
	for i := 0; i < 20000; i++ {
		mean := means[i%len(means)]
		if i%3 != 0 {
			mean = means[pick.Intn(6)] // mostly the hot handful, as a run does
		}
		w := false
		if !(mean <= 0) { // as PoissonAtLeastOne tests it: a NaN mean still consumes its draw
			w = want.Float64() < -math.Expm1(-mean)
		}
		if g := got.PoissonAtLeastOne(mean); g != w {
			t.Fatalf("query %d, mean %v: memo says %v, formula %v", i, mean, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("streams diverged: %d vs %d", g, w)
	}
}

func TestSimulatorString(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

// TestManyEventsStress exercises heap behaviour with a large random
// workload including interleaved cancels.
func TestManyEventsStress(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(3))
	var last time.Duration
	ok := true
	var evs []Event
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Intn(10000)) * time.Millisecond
		evs = append(evs, s.Schedule(d, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}))
	}
	for i := 0; i < 1000; i++ {
		s.Cancel(evs[r.Intn(len(evs))])
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !ok {
		t.Error("clock went backwards under stress")
	}
}
