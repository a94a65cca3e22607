package cell

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"wtcp/internal/sim"
)

// outcome is everything one run shows the outside: its Result (nil on
// error), the error, and the kernel's fired count and clock at the end.
type outcome struct {
	res   *Result
	err   error
	fired uint64
	now   time.Duration
}

// disturbance is what a differential run does to the kernel besides the
// cell: a budget, and a kernel event at some virtual time that cancels
// the bound context or breaks segment conservation.
type disturbance struct {
	budget   sim.Budget
	cancelAt time.Duration
	faultAt  time.Duration
}

// runWay runs cfg the way RunContext does, on a fresh kernel, with the
// pump's inline advance on or (stepwise) off.
func runWay(t *testing.T, cfg Config, stepwise bool, d disturbance) outcome {
	t.Helper()
	e, err := newEngine(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := sim.New()
	s.SetBudget(d.budget)
	s.Bind(ctx)
	e.bind(s)
	e.stepwise = stepwise
	if d.cancelAt > 0 {
		s.Schedule(d.cancelAt, cancel)
	}
	if d.faultAt > 0 {
		// Every live segment retired behind the engine's back (the first
		// time from faultAt on that any is live): the engine's own
		// retire of one of them later, inside the pump, is a double
		// retire and latches the conservation fault.
		var corrupt func()
		corrupt = func() {
			if e.segs.live > 0 {
				retireAll(e)
				return
			}
			s.Schedule(time.Millisecond, corrupt)
		}
		s.Schedule(d.faultAt, corrupt)
	}
	e.begin()
	out := outcome{err: e.loop()}
	if out.err == nil {
		out.res, out.err = e.finish()
	}
	out.fired, out.now = s.Fired(), s.Now()
	return out
}

// sameOutcome fails t unless the two ways ended identically: Result
// bit for bit (JSON, the float fields by their bits), the same error
// value, fired count and clock.
func sameOutcome(t *testing.T, name string, inline, stepwise outcome) {
	t.Helper()
	if inline.fired != stepwise.fired || inline.now != stepwise.now {
		t.Fatalf("%s: inline ended with %d events fired at %v, stepwise %d at %v", name, inline.fired, inline.now, stepwise.fired, stepwise.now)
	}
	if !reflect.DeepEqual(inline.err, stepwise.err) {
		t.Fatalf("%s: inline error %#v, stepwise %#v", name, inline.err, stepwise.err)
	}
	if (inline.res == nil) != (stepwise.res == nil) {
		t.Fatalf("%s: inline result %v, stepwise %v", name, inline.res, stepwise.res)
	}
	if inline.res == nil {
		return
	}
	a, _ := json.Marshal(inline.res)
	b, _ := json.Marshal(stepwise.res)
	if string(a) != string(b) ||
		math.Float64bits(inline.res.AggregateKbps) != math.Float64bits(stepwise.res.AggregateKbps) ||
		math.Float64bits(inline.res.Fairness) != math.Float64bits(stepwise.res.Fairness) {
		t.Fatalf("%s: results differ:\ninline   %s\nstepwise %s", name, a, b)
	}
}

// TestInlineAdvanceMatchesStepwise is the differential pin of the pump's
// inline advance: every configuration runs once with the pump advancing
// the kernel clock in place and once with every instant a kernel event
// of its own, and the two must be indistinguishable — the same Result,
// the same kernel fired count, and, under an event ceiling and a
// virtual-time ceiling that trip mid-run, a context cancelled mid-run
// and an engine fault latched mid-run, the same error at the same
// instant.
func TestInlineAdvanceMatchesStepwise(t *testing.T) {
	flows := 600
	if testing.Short() || raceEnabled {
		flows = 150
	}
	for _, pol := range []Policy{RoundRobin, FIFO, CSDP} {
		for _, shared := range []bool{true, false} {
			for _, chaos := range []bool{false, true} {
				cfg := Preset(flows)
				cfg.BaseStations = 2
				cfg.Policy = pol
				cfg.SharedChannel = shared
				cfg.OracleSample = 4
				cfg.AdmitBatch = flows / 10
				if pol == CSDP && !shared {
					cfg.PredictorAccuracy = 0.8
				}
				if chaos {
					cfg.EBSNBroadcast = true
					cfg.faults = faults{dropP: 0.02, dupP: 0.02, reorderP: 0.05}
				}
				name := fmt.Sprintf("%v shared=%v chaos=%v", pol, shared, chaos)

				base := disturbance{}
				inline := runWay(t, cfg, false, base)
				sameOutcome(t, name, inline, runWay(t, cfg, true, base))
				if inline.err != nil || !inline.res.Completed {
					t.Fatalf("%s: undisturbed run: %+v, %v", name, inline.res, inline.err)
				}

				// mid is when the run has fired half its kernel events: a
				// tail of slow flows can stretch the clock far past it.
				var mid time.Duration
				for _, d := range []disturbance{
					{budget: sim.Budget{MaxEvents: int64(inline.fired / 2)}},
					{budget: sim.Budget{MaxVirtual: inline.now / 2}},
					{cancelAt: -1},
					{faultAt: -1},
				} {
					if d.cancelAt < 0 {
						d.cancelAt = mid
					}
					if d.faultAt < 0 {
						d.faultAt = mid * 2 / 3
					}
					in, sw := runWay(t, cfg, false, d), runWay(t, cfg, true, d)
					if mid == 0 {
						mid = in.now
					}
					sameOutcome(t, fmt.Sprintf("%s %+v", name, d), in, sw)
					var be *sim.BudgetError
					var ce *sim.CancelError
					switch {
					case d.budget.Enabled() && !errors.As(in.err, &be),
						d.cancelAt > 0 && !errors.As(in.err, &ce),
						d.faultAt > 0 && (in.err == nil || in.res != nil):
						t.Fatalf("%s %+v: the disturbance did not halt the run mid-way: %v", name, d, in.err)
					}
				}
			}
		}
	}
}
