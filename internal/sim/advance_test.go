package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// snapshot is what a refused Advance must leave as it found it.
type snapshot struct {
	now     time.Duration
	seq     uint64
	fired   uint64
	pending int
	stats   Stats
	failure error
	stopped bool
}

func snap(s *Simulator) snapshot {
	return snapshot{s.now, s.seq, s.fired, s.Pending(), s.Stats(), s.failure, s.stopped}
}

// TestAdvanceEqualsScheduleAndStep: an accepted Advance leaves the
// kernel exactly as ScheduleAt followed by Step leaves it — clock,
// sequence, fired count, every counter — and the events queued after it
// pop in the same order.
func TestAdvanceEqualsScheduleAndStep(t *testing.T) {
	build := func() *Simulator {
		s := New()
		for i := 0; i < 40; i++ { // past the sorted layout's bound
			s.Schedule(time.Duration(10+i%7)*time.Millisecond, func() {})
		}
		s.Cancel(s.Schedule(time.Millisecond, func() {})) // a tombstone at the front
		return s
	}
	in, tw := build(), build()
	if !in.Advance(5 * time.Millisecond) {
		t.Fatal("Advance refused with nothing due before it")
	}
	tw.ScheduleAt(5*time.Millisecond, func() {})
	if ok, err := tw.Step(); !ok || err != nil {
		t.Fatalf("Step = (%v, %v)", ok, err)
	}
	if a, b := snap(in), snap(tw); a != b {
		t.Fatalf("Advance left %+v, ScheduleAt+Step %+v", a, b)
	}
	var gotIn, gotTw []time.Duration
	for i := 0; i < 3; i++ {
		in.Schedule(5*time.Millisecond, func() { gotIn = append(gotIn, in.Now()) })
		tw.Schedule(5*time.Millisecond, func() { gotTw = append(gotTw, tw.Now()) })
	}
	if err := in.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := tw.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIn, gotTw) || snap(in) != snap(tw) {
		t.Fatalf("after the advance: %v %+v, twin %v %+v", gotIn, snap(in), gotTw, snap(tw))
	}
	// A time in the past is Now, as ScheduleAt clamps it.
	if now := in.Now(); !in.Advance(0) || in.Now() != now {
		t.Fatalf("Advance(0) at %v moved the clock to %v", now, in.Now())
	}
}

// TestAdvanceRefusals pins each rule under which Advance refuses, and
// that a refusal changes nothing.
func TestAdvanceRefusals(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		setup func(s *Simulator)
		t     time.Duration
	}{
		{"tie", func(s *Simulator) { s.Schedule(2*time.Millisecond, func() {}) }, 2 * time.Millisecond},
		{"earlier", func(s *Simulator) { s.Schedule(time.Millisecond, func() {}) }, 2 * time.Millisecond},
		{"stop", func(s *Simulator) { s.Stop() }, time.Millisecond},
		{"failure", func(s *Simulator) { s.Fail("test", errors.New("boom")) }, time.Millisecond},
		// A later Run clears the stop but not the failure.
		{"failure-unstopped", func(s *Simulator) { s.Fail("test", errors.New("boom")); s.stopped = false }, time.Millisecond},
		{"context", func(s *Simulator) { s.Bind(cancelled) }, time.Millisecond},
		{"max-events", func(s *Simulator) { s.SetBudget(Budget{MaxEvents: 1}); s.Schedule(0, func() {}); step(t, s) }, time.Hour},
		{"max-virtual", func(s *Simulator) { s.SetBudget(Budget{MaxVirtual: time.Second}) }, time.Second + 1},
		{"wall-probe", func(s *Simulator) { s.SetBudget(Budget{WallClock: time.Hour}) }, time.Millisecond},
		{"heap-probe", func(s *Simulator) { s.SetBudget(Budget{MaxHeapBytes: 1 << 50}) }, time.Millisecond},
	} {
		s := New()
		s.Schedule(time.Hour+1, func() {}) // due after every t below
		tc.setup(s)
		before := snap(s)
		if s.Advance(tc.t) {
			t.Fatalf("%s: Advance(%v) accepted", tc.name, tc.t)
		}
		if after := snap(s); after != before {
			t.Fatalf("%s: refusal changed %+v to %+v", tc.name, before, after)
		}
	}

	// The near sides of the same rules advance.
	s := New()
	s.Schedule(2*time.Millisecond, func() {})
	s.SetBudget(Budget{MaxVirtual: time.Millisecond, MaxEvents: 2})
	if !s.Advance(time.Millisecond) {
		t.Fatal("refused an advance due before the next event, at the virtual ceiling, under the event ceiling")
	}
	s = New()
	s.Bind(cancelled)
	s.fired = 1 // between context polls: Step would not look either
	if !s.Advance(time.Millisecond) {
		t.Fatal("refused an advance between context polls")
	}
	// A probe that has run defers the next one by its stride.
	s = New()
	s.SetBudget(Budget{WallClock: time.Hour, MaxHeapBytes: 1 << 50})
	s.Schedule(0, func() {})
	step(t, s)
	for i := 1; i < wallCheckStride; i++ {
		if !s.Advance(s.Now()) {
			t.Fatalf("refused at fired %d, inside the wall stride", s.fired)
		}
	}
	if s.Advance(s.Now()) {
		t.Fatalf("advanced at fired %d, where the wall probe falls due", s.fired)
	}
}

func step(t *testing.T, s *Simulator) {
	t.Helper()
	if ok, err := s.Step(); !ok || err != nil {
		t.Fatalf("Step = (%v, %v)", ok, err)
	}
}

// pacer is the cell pump's pattern at kernel scale: one callback visits
// a list of instants, moving between them with Advance (inline) or by
// re-arming its timer (stepwise), and can fail or stop the kernel at one
// of them. Background events share the kernel, some tied with its
// instants.
type pacer struct {
	s      *Simulator
	timer  *Timer
	at     []time.Duration
	next   int
	inline bool
	failAt int
	stopAt int
	visits []visit
}

type visit struct {
	who   int
	at    time.Duration
	fired uint64
}

func (p *pacer) fire() {
	for {
		p.visits = append(p.visits, visit{-1, p.s.Now(), p.s.Fired()})
		if p.next == p.failAt {
			p.s.Fail("pacer", errors.New("boom"))
		}
		if p.next == p.stopAt {
			p.s.Stop()
		}
		if p.next++; p.next == len(p.at) {
			return
		}
		at := p.at[p.next]
		if p.inline && p.s.Advance(at) {
			continue
		}
		p.timer.Set(at - p.s.Now())
		return
	}
}

type pacerRun struct {
	visits []visit
	err    error
	now    time.Duration
	stats  Stats
}

// runPacer drives one pacer under Step, as the cell engine's loop does.
func runPacer(inline bool, b Budget, failAt, stopAt int, cancelAt time.Duration) pacerRun {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Bind(ctx)
	s.SetBudget(b)
	p := &pacer{s: s, inline: inline, failAt: failAt, stopAt: stopAt}
	p.timer = NewTimer(s, p.fire)
	rng := NewRNG(7)
	at := time.Duration(0)
	for i := 0; i < 6000; i++ {
		at += time.Duration(rng.Intn(3)) * time.Millisecond // ties and repeats
		p.at = append(p.at, at)
	}
	var bg func()
	n := 0
	bg = func() {
		p.visits = append(p.visits, visit{n, s.Now(), s.Fired()})
		if n++; n < 1500 {
			s.Schedule(time.Duration(rng.Intn(8))*time.Millisecond, bg)
		}
	}
	s.Schedule(0, bg)
	if cancelAt > 0 {
		s.Schedule(cancelAt, cancel)
	}
	p.timer.Set(0)
	var err error
	for {
		var ok bool
		if ok, err = s.Step(); err != nil || !ok {
			break
		}
	}
	return pacerRun{p.visits, err, s.Now(), s.Stats()}
}

// TestAdvanceDifferential runs the pacer both ways under every halt the
// kernel knows and requires the same visits (instant and fired count),
// the same error value, clock and kernel counters.
func TestAdvanceDifferential(t *testing.T) {
	for _, tc := range []struct {
		name           string
		budget         Budget
		failAt, stopAt int
		cancelAt       time.Duration
	}{
		{name: "plain", failAt: -1, stopAt: -1},
		{name: "max-events", budget: Budget{MaxEvents: 4321}, failAt: -1, stopAt: -1},
		{name: "max-virtual", budget: Budget{MaxVirtual: 2 * time.Second}, failAt: -1, stopAt: -1},
		{name: "wall-and-heap-probes", budget: Budget{WallClock: time.Hour, MaxHeapBytes: 1 << 50}, failAt: -1, stopAt: -1},
		{name: "cancel", failAt: -1, stopAt: -1, cancelAt: 3 * time.Second},
		{name: "fail", failAt: 2500, stopAt: -1},
		{name: "stop", failAt: -1, stopAt: 3100},
	} {
		in := runPacer(true, tc.budget, tc.failAt, tc.stopAt, tc.cancelAt)
		sw := runPacer(false, tc.budget, tc.failAt, tc.stopAt, tc.cancelAt)
		if !reflect.DeepEqual(in.err, sw.err) {
			t.Fatalf("%s: inline error %#v, stepwise %#v", tc.name, in.err, sw.err)
		}
		if in.now != sw.now || in.stats != sw.stats {
			t.Fatalf("%s: inline ended at %v with %+v, stepwise at %v with %+v", tc.name, in.now, in.stats, sw.now, sw.stats)
		}
		if !reflect.DeepEqual(in.visits, sw.visits) {
			for i := range in.visits {
				if i >= len(sw.visits) || in.visits[i] != sw.visits[i] {
					t.Fatalf("%s: visit %d inline %+v, stepwise %v", tc.name, i, in.visits[i], sw.visits[i:min(i+1, len(sw.visits))])
				}
			}
			t.Fatalf("%s: %d visits inline, %d stepwise", tc.name, len(in.visits), len(sw.visits))
		}
		if tc.name != "plain" && tc.name != "wall-and-heap-probes" && in.err == nil {
			t.Fatalf("%s: the run did not halt", tc.name)
		}
	}
}
