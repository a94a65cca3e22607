package experiment

import (
	"sync"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// This file is the engine half of the run-supervision layer: the
// default per-run resource budget, and the per-point circuit breaker
// that turns classified failures into explicit quarantine records
// instead of a hung worker or a dead sweep.
//
// Policy, by failure class (core.Classify):
//
//	transient           retry with a perturbed seed (the pre-existing
//	                    behaviour), skip the replication when retries
//	                    are exhausted
//	protocol-bug, panic fail fast: no retries, emit a repro bundle,
//	                    fail the sweep — the implementation is wrong
//	resource-exhausted  the circuit breaker trips after the point's
//	                    attempts are spent: the point is quarantined
//	                    (recorded in the checkpoint and the sweep
//	                    result), a repro bundle is emitted, and the
//	                    sweep continues degraded
//	canceled            propagate; the caller asked the sweep to stop
//
// Quarantine is never silent: a governed sweep's output always carries
// the explicit Quarantined list, and a resumed sweep replays recorded
// quarantines in sweep order so its result is byte-identical whether
// the quarantine happened before or after the resume boundary.

// Default per-run ceilings the engine applies when supervision has not
// been configured otherwise. They exist to close a real gap: the sim
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
// governed sweep, and why.
type Quarantine struct {
	// Key is the sweep point's checkpoint key.
	Key string `json:"key"`
	// Class is the failure class that tripped the breaker
	// (a core.FailureClass string).
	Class string `json:"class"`
	// Attempts is how many replication attempts were spent before the
	// breaker tripped.
	Attempts int `json:"attempts"`
	// Reason is the final attempt's error.
	Reason string `json:"reason"`
	// Worker names the fleet worker that last held the point when the
	// breaker tripped (empty for single-process sweeps), so degraded
	// distributed campaigns stay auditable in the report's quarantine
	// table.
	Worker string `json:"worker,omitempty"`
}

// Supervisor arms the per-point circuit breaker for a sweep and
// collects its quarantine records. A nil Supervisor in Options keeps
// the engine's historical all-or-nothing behaviour (any point whose
// every replication fails, fails the sweep). Safe for concurrent use;
// one Supervisor may span several sweeps (a whole report run).
type Supervisor struct {
	mu          sync.Mutex
	quarantined []Quarantine
}

// NewSupervisor returns an empty supervisor.
func NewSupervisor() *Supervisor { return &Supervisor{} }

// Quarantined returns the quarantine records in the order the points
// were (or, on resume, would have been) reached by the sweep.
func (sv *Supervisor) Quarantined() []Quarantine {
	if sv == nil {
		return nil
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]Quarantine, len(sv.quarantined))
	copy(out, sv.quarantined)
	return out
}

// note appends one quarantine record.
func (sv *Supervisor) note(q Quarantine) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.quarantined = append(sv.quarantined, q)
}

// runBudget resolves the budget one replication attempt runs under:
// the run's own Config.Budget wins field by field, then Options.RunBudget,
// then the engine defaults (unless NoRunBudget). A negative field at any
// layer means "explicitly unlimited" and survives the layering.
func (o Options) runBudget(b sim.Budget) sim.Budget {
	b = b.Or(o.RunBudget)
	if o.NoRunBudget {
		return b
	}
	return b.Or(sim.Budget{MaxEvents: DefaultRunMaxEvents, WallClock: DefaultRunWall})
}

// noteQuarantined records a quarantine with the supervisor and the
// health telemetry.
func (o Options) noteQuarantined(q Quarantine) {
	o.Supervise.note(q)
	o.Health.noteQuarantine()
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
