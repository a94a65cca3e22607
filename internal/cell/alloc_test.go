package cell

import (
	"testing"
	"time"

	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// warmEngine builds an engine on a fresh kernel and steps it through its
// start-up transient: slab growth (arena, calendar, kernel heap) is
// amortized and must plateau, after which the steady state is
// allocation-free. Returns the engine mid-run with plenty of events left.
// The warm-up runs stepwise — one kernel Step per instant — so
// warmupSteps counts instants; the engine is returned with the inline
// advance back on, as RunContext runs it.
func warmEngine(tb testing.TB, cfg Config, warmupSteps int) *engine {
	tb.Helper()
	e, err := newEngine(cfg.withDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	e.bind(sim.New())
	e.stepwise = true
	e.begin()
	for i := 0; i < warmupSteps; i++ {
		ok, err := e.s.Step()
		if err != nil {
			tb.Fatalf("warmup step: %v", err)
		}
		if !ok {
			tb.Fatal("run drained during warmup; grow the transfer")
		}
	}
	e.stepwise = false
	return e
}

// window measures the inline pump over a span of micro-events. With
// nothing else in a cell run's kernel, one Step can run the rest of the
// run, so each Step is bounded by a sentinel kernel event 20 ms of
// virtual time out; the window closes once a sentinel has fired and at
// least windowEvents micro-events have run. The sentinel's callback is
// bound once and its event struct is pooled, so a window allocates
// nothing the engine does not.
type window struct {
	e        *engine
	sentinel func()
	fired    bool
	// steps counts the kernel Steps every window has taken.
	steps int
}

const windowEvents = 2000

func newWindow(e *engine) *window {
	w := &window{e: e}
	w.sentinel = func() { w.fired = true }
	return w
}

func (w *window) run(t *testing.T) {
	start := w.e.events
	for w.e.events-start < windowEvents {
		w.fired = false
		w.e.s.Schedule(20*time.Millisecond, w.sentinel)
		for !w.fired {
			if ok, err := w.e.s.Step(); err != nil || !ok {
				t.Fatalf("step: ok=%v err=%v", ok, err)
			}
			w.steps++
		}
	}
}

// requireInline fails t unless the windows ran on the inline path: far
// fewer kernel Steps than micro-events.
func (w *window) requireInline(t *testing.T, events uint64) {
	t.Helper()
	if uint64(w.steps)*10 > events {
		t.Fatalf("%d kernel Steps for %d micro-events: the pump did not advance inline", w.steps, events)
	}
}

// steadyConfig is a mid-sized cell with transfers long enough that the
// run stays in steady state for millions of events.
func steadyConfig() Config {
	cfg := Preset(256)
	cfg.TransferSize = 4 * units.MB
	cfg.Horizon = 4 * time.Hour
	cfg.OracleSample = 0
	return cfg
}

// TestSteadyStateZeroAllocs is the tentpole's allocation pin: once the
// working set has plateaued, processing events — sends, ARQ cycles,
// deliveries, acks, timer churn, the pump advancing the kernel clock
// inline — allocates nothing. AllocsPerRun demands an exact zero: a
// single per-packet or per-ack object shows up as >= 1 and fails.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	e := warmEngine(t, steadyConfig(), 50000)
	w := newWindow(e)
	start := e.events
	avg := testing.AllocsPerRun(10, func() { w.run(t) })
	if avg != 0 {
		t.Fatalf("steady state allocates: %.1f allocs per window of %d events", avg, windowEvents)
	}
	w.requireInline(t, e.events-start)
}

// TestSteadyStateZeroAllocsFIFO pins the same property for the FIFO
// ring (its growable buffer must also plateau) and for a chaos run
// (fault draws and duplicate deliveries are allocation-free too).
func TestSteadyStateZeroAllocsFIFO(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	cfg := steadyConfig()
	cfg.Policy = FIFO
	cfg.Chaos = Chaos{DropP: 0.05, DupP: 0.05, ReorderP: 0.05}
	e := warmEngine(t, cfg, 50000)
	w := newWindow(e)
	start := e.events
	avg := testing.AllocsPerRun(10, func() { w.run(t) })
	if avg != 0 {
		t.Fatalf("FIFO/chaos steady state allocates: %.1f allocs per window of %d events", avg, windowEvents)
	}
	w.requireInline(t, e.events-start)
}
