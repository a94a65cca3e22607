package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestMonotonic(t *testing.T) {
	v := int64(0)
	chk := Monotonic("counter", func() int64 { return v })
	for _, step := range []int64{0, 5, 5, 9} {
		v = step
		if err := chk(); err != nil {
			t.Fatalf("monotone advance to %d rejected: %v", step, err)
		}
	}
	v = 3
	if err := chk(); err == nil {
		t.Error("backwards move 9 -> 3 not detected")
	}
}

func TestConservation(t *testing.T) {
	limit, have := int64(10), int64(10)
	chk := Conservation("test", func() int64 { return limit }, func() int64 { return have })
	if err := chk(); err != nil {
		t.Fatalf("have == limit rejected: %v", err)
	}
	have = 11
	if err := chk(); err == nil {
		t.Error("have > limit not detected")
	}
}

func TestCheckNowReportsViolation(t *testing.T) {
	s := New()
	bad := errors.New("broken")
	s.AddCheck("ok", func() error { return nil })
	s.AddCheck("bad", func() error { return bad })
	err := s.CheckNow()
	if err == nil {
		t.Fatal("violation not reported")
	}
	var ce *CheckError
	if !errors.As(err, &ce) || ce.Name != "bad" || !errors.Is(err, bad) {
		t.Errorf("err = %v, want CheckError wrapping the violation under name \"bad\"", err)
	}
	if s.Failure() == nil {
		t.Error("failure not recorded on the simulator")
	}
}

func TestEnableChecksHaltsRun(t *testing.T) {
	s := New()
	v := int64(0)
	s.AddCheck("mono", Monotonic("v", func() int64 { return v }))
	s.EnableChecks(time.Second)
	// Advance the value, then break monotonicity between check ticks.
	s.Schedule(1500*time.Millisecond, func() { v = 10 })
	s.Schedule(2500*time.Millisecond, func() { v = 2 })
	keepAlive := func() {}
	for i := 1; i <= 20; i++ {
		s.Schedule(time.Duration(i)*time.Second, keepAlive)
	}
	err := s.Run(30 * time.Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped from the failing check", err)
	}
	var ce *CheckError
	if f := s.Failure(); !errors.As(f, &ce) {
		t.Fatalf("Failure() = %v, want *CheckError", f)
	}
	if ce.At < 3*time.Second || ce.At > 4*time.Second {
		t.Errorf("violation detected at %v, want the first tick after the regression", ce.At)
	}
}

func TestEnableChecksIdempotent(t *testing.T) {
	s := New()
	calls := 0
	s.AddCheck("count", func() error { calls++; return nil })
	s.EnableChecks(time.Second)
	s.EnableChecks(time.Second) // second call must not double the runner
	if err := s.Run(3500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("check ran %d times over 3.5s, want 3 (one runner)", calls)
	}
}

func TestHeapCheckCleanSimulation(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.CheckNow(); err != nil {
		t.Errorf("healthy heap flagged: %v", err)
	}
}

// TestHeapCheckSeesEitherLayout corrupts a healthy queue in each layout
// and requires checkHeap to name the damage: slot order and recorded
// slots, the tombstone count, the 4-ary property, and the sorted
// layout's size bound.
func TestHeapCheckSeesEitherLayout(t *testing.T) {
	const sorted, heaped = sortedMax, 3 * sortedMax // events queued before the damage
	for _, tc := range []struct {
		name    string
		n       int
		corrupt func(s *Simulator)
		want    string
	}{
		{"sorted order", sorted, func(s *Simulator) {
			a := s.queue.a
			a[3], a[4] = a[4], a[3]
			a[3].pos, a[4].pos = 3, 4
		}, "sorted order violated"},
		{"sorted pos", sorted, func(s *Simulator) { s.queue.a[5].pos = 6 }, "records index 6"},
		{"sorted tombstones", sorted, func(s *Simulator) { s.queue.a[2].dead = true }, "tombstone count"},
		{"sorted bound", sorted, func(s *Simulator) {
			e := &event{at: time.Hour, seq: 1 << 40, pos: sortedMax}
			s.queue.a = append([]*event{e}, s.queue.a...)
			for i, e := range s.queue.a {
				e.pos = int32(i)
			}
		}, "above its bound"},
		{"heap order", heaped, func(s *Simulator) { s.queue.a[0].at = time.Hour }, "heap order violated"},
		{"heap pos", heaped, func(s *Simulator) { s.queue.a[40].pos = 41 }, "records index 41"},
		{"heap tombstones", heaped, func(s *Simulator) { s.dead++ }, "tombstone count"},
	} {
		s := New()
		for i := 0; i < tc.n; i++ {
			s.Schedule(time.Duration(i%7)*time.Millisecond, func() {})
		}
		if err := s.checkHeap(); err != nil {
			t.Fatalf("%s: healthy queue flagged: %v", tc.name, err)
		}
		if s.queue.heap != (tc.n > sortedMax) {
			t.Fatalf("%s: %d events in the wrong layout (heap=%v)", tc.name, tc.n, s.queue.heap)
		}
		tc.corrupt(s)
		err := s.CheckNow()
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Name != "event-heap" || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckNow = %v, want an event-heap violation naming %q", tc.name, err, tc.want)
		}
	}
}

func TestWatchdogAbortsOnStall(t *testing.T) {
	s := New()
	progress := int64(0)
	s.StartWatchdog(time.Second, func() int64 { return progress }, func() string { return "state dump" })
	// Progress moves once at 500ms, then stalls forever.
	s.Schedule(500*time.Millisecond, func() { progress = 7 })
	keepAlive := func() {}
	for i := 1; i <= 20; i++ {
		s.Schedule(time.Duration(i)*time.Second, keepAlive)
	}
	err := s.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped from the watchdog", err)
	}
	var se *StallError
	if f := s.Failure(); !errors.As(f, &se) {
		t.Fatalf("Failure() = %v, want *StallError", f)
	}
	if se.Progress != 7 {
		t.Errorf("stuck progress = %d, want 7", se.Progress)
	}
	// Detection latency is between stall and 2*stall after the last change.
	if lag := se.At - se.Since; lag < time.Second || lag > 2*time.Second {
		t.Errorf("declared stall after %v of no progress, want within [1s, 2s]", lag)
	}
	if se.Snapshot != "state dump" {
		t.Errorf("snapshot = %q", se.Snapshot)
	}
}

func TestWatchdogToleratesSteadyProgress(t *testing.T) {
	s := New()
	progress := int64(0)
	s.StartWatchdog(time.Second, func() int64 { return progress }, nil)
	for i := 1; i <= 10; i++ {
		i := i
		s.Schedule(time.Duration(i)*800*time.Millisecond, func() { progress = int64(i) })
	}
	if err := s.Run(8 * time.Second); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if f := s.Failure(); f != nil {
		t.Errorf("watchdog fired despite steady progress: %v", f)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	s := New()
	s.StartWatchdog(0, func() int64 { return 0 }, nil)
	s.StartWatchdog(time.Second, nil, nil)
	if s.Pending() != 0 {
		t.Error("disabled watchdog scheduled events")
	}
}

func TestStepSurfacesRegisteredFailure(t *testing.T) {
	s := New()
	s.AddCheck("always-bad", func() error { return errors.New("boom") })
	s.EnableChecks(time.Second)
	s.Schedule(10*time.Second, func() {})
	// Drive by Step, as core's run loops do: the loop must terminate with
	// the failure surfaced through Step's error, not silently via !ok.
	var stepErr error
	for i := 0; i < 1000; i++ {
		ok, err := s.Step()
		if err != nil {
			stepErr = err
			break
		}
		if !ok {
			t.Fatal("queue drained without surfacing the failing check")
		}
	}
	var ce *CheckError
	if !errors.As(stepErr, &ce) {
		t.Fatalf("Step error = %v, want *CheckError", stepErr)
	}
	if ce.Name != "always-bad" {
		t.Errorf("check name = %q", ce.Name)
	}
	if !errors.Is(stepErr, s.Failure()) {
		t.Error("Step error and Failure() disagree")
	}
	// Subsequent Steps keep reporting the same failure and never execute.
	if ok, err := s.Step(); ok || err == nil {
		t.Errorf("Step after failure = (%v, %v), want (false, failure)", ok, err)
	}
}

func TestFailRecordsExternalFailure(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(time.Second, func() {
		s.Fail("oracle", errors.New("rule violated"))
	})
	s.Schedule(2*time.Second, func() { fired = true })
	ok, err := s.Step()
	if !ok || err != nil {
		t.Fatalf("first Step = (%v, %v)", ok, err)
	}
	ok, err = s.Step()
	if ok || err == nil {
		t.Fatalf("Step after Fail = (%v, %v), want halt", ok, err)
	}
	var ce *CheckError
	if !errors.As(err, &ce) || ce.Name != "oracle" || ce.At != time.Second {
		t.Errorf("failure = %v", err)
	}
	if fired {
		t.Error("event executed after Fail halted the run")
	}
	// Only the first failure is kept.
	s.Fail("second", errors.New("later"))
	if !errors.As(s.Failure(), &ce) || ce.Name != "oracle" {
		t.Errorf("first failure not preserved: %v", s.Failure())
	}
}
