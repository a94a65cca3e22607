package experiment

import (
	"fmt"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// This file is the engine half of the run-supervision layer: the
// default per-run resource budget, and the per-point circuit breaker
// that turns classified failures into explicit quarantine records
// instead of a hung worker or a dead sweep. Every engine run, whoever
// calls it, settles its points under this one policy.
//
// Policy, by failure class (core.Classify). Replication k runs seed
// BaseSeed+k and no other, so one failed replication settles its point:
//
//	transient           quarantine the point: a watchdog stall, an
//	                    incomplete transfer or any unrecognized error
//	                    recurs under the same seed
//	protocol-bug, panic fail fast: emit a repro bundle, fail the
//	                    sweep — the implementation is wrong
//	resource-exhausted  re-run once under the same seed when the
//	                    ceiling was the host's (wall clock, heap), the
//	                    one that seed can finish past; quarantine the
//	                    point on an events or virtual-time ceiling, or
//	                    on a host ceiling hit twice
//	canceled            propagate; the caller asked the sweep to stop
//
// A tripped breaker quarantines the point: it is recorded in the
// checkpoint, in the sweep result (the point keeps its keys and loses
// its measurements) and on Options.Health, a repro bundle is emitted,
// and the sweep continues degraded. Quarantine is never silent, and a
// resumed sweep replays recorded quarantines in sweep order, so its
// result is byte-identical whether the quarantine happened before or
// after the resume boundary. A resource-exhausted quarantine replays
// only under a budget no larger than the one it exhausted
// (Quarantine.answers); a larger one measures the point.

// Default per-run ceilings the engine applies when neither the run nor
// Options.RunBudget sets them. They exist to close a real gap: the sim
// watchdog only sees virtual-time stalls, so a same-instant event
// livelock used to hang an engine worker forever. The values are far
// above any legitimate paper scenario (the heaviest LAN replication
// fires ~10M events and finishes in seconds of wall clock).
const (
	// DefaultRunWall is the default wall-clock deadline per replication
	// attempt.
	DefaultRunWall = 10 * time.Minute
	// DefaultRunMaxEvents is the default fired-event ceiling per
	// replication attempt (the livelock guard).
	DefaultRunMaxEvents = int64(1) << 31
)

// Quarantine records one sweep point the circuit breaker removed from a
// sweep, and why.
type Quarantine struct {
	// Key is the sweep point's checkpoint key.
	Key string `json:"key"`
	// Class is the failure class that tripped the breaker
	// (a core.FailureClass string).
	Class string `json:"class"`
	// Attempts is how many attempts the failed replication made: 2 after
	// a host ceiling's re-run, else 1.
	Attempts int `json:"attempts"`
	// Reason is the final attempt's error.
	Reason string `json:"reason"`
	// Ceiling and Limit name the budget a resource-exhausted point ran
	// out of: a sim.Budget* kind and its configured limit, in that
	// kind's unit (see answers).
	Ceiling string `json:"ceiling,omitempty"`
	Limit   int64  `json:"limit,omitempty"`
	// Worker names the fleet worker that last held the point when the
	// breaker tripped (empty for single-process sweeps), so degraded
	// distributed campaigns stay auditable in the report's quarantine
	// table.
	Worker string `json:"worker,omitempty"`
}

// Err is the quarantine as the error a caller that runs one point
// (wtcp sim) returns for it, in the text of a fail-fast verdict.
func (q Quarantine) Err() error {
	return fmt.Errorf("experiment: point %q: %s: %s", q.Key, q.Class, q.Reason)
}

// BudgetBound reports whether q holds only under some run budgets (a
// resource-exhausted one, see answers); others hold under any budget.
func (q Quarantine) BudgetBound() bool {
	return q.Class == string(core.ClassResourceExhausted)
}

// answers reports whether q settles its point for a caller whose runs
// resolve to budget b (Options.runBudget). A budget-bound point would
// exhaust again only under a set limit of its Ceiling's kind no larger
// than Limit, so only such a caller gets it; one with no Ceiling (an
// earlier build's) answers none. Other quarantines answer every caller.
func (q Quarantine) answers(b sim.Budget) bool {
	if !q.BudgetBound() {
		return true
	}
	limit := map[string]int64{sim.BudgetEvents: b.MaxEvents, sim.BudgetVirtual: int64(b.MaxVirtual),
		sim.BudgetWall: int64(b.WallClock), sim.BudgetHeap: b.MaxHeapBytes}[q.Ceiling]
	return limit > 0 && limit <= q.Limit
}

// runBudget resolves the budget one replication attempt runs under:
// the run's own Config.Budget wins field by field, then Options.RunBudget,
// then the engine defaults. A negative field at any layer means
// "explicitly unlimited" and survives the layering.
func (o Options) runBudget(b sim.Budget) sim.Budget {
	return b.Or(o.RunBudget).Or(sim.Budget{MaxEvents: DefaultRunMaxEvents, WallClock: DefaultRunWall})
}

// failFast reports whether the class must abort the sweep immediately.
func failFast(class core.FailureClass) bool {
	return class == core.ClassProtocolBug || class == core.ClassPanic
}

// repFailure is a permanently failed replication: the annotated error,
// its failure class, and the attempts spent. It unwraps to the
// underlying run error so errors.As (and core.Classify) see through it.
type repFailure struct {
	err      error
	class    core.FailureClass
	attempts int
}

// Error implements error.
func (f *repFailure) Error() string { return f.err.Error() }

// Unwrap exposes the underlying error.
func (f *repFailure) Unwrap() error { return f.err }
