package core

import (
	"context"
	"errors"

	"wtcp/internal/sim"
)

// This file is the supervision layer's failure taxonomy: every error a
// run can produce maps to one class, and the class — not the concrete
// error type — drives the experiment engine's policy. Protocol bugs
// and panics fail fast and emit a repro bundle, transient failures and
// resource exhaustion quarantine the point (a host ceiling — wall
// clock, heap — after one re-run under the same seed), and cancellation
// propagates untouched. Keeping the mapping here, next to the error
// types' producers, means a new failure mode cannot silently land in
// the wrong policy: it must be placed in the table below.

// FailureClass partitions run failures by the policy they deserve.
type FailureClass string

const (
	// ClassNone is the class of a nil error.
	ClassNone FailureClass = "none"
	// ClassProtocolBug marks a correctness failure — an invariant
	// violation or a conformance-oracle rule breach. Retrying is lying:
	// the implementation is wrong, not unlucky. Fail fast, keep the
	// repro bundle.
	ClassProtocolBug FailureClass = "protocol-bug"
	// ClassTransient marks a failure of this sample path that is not a
	// bug — a watchdog stall (the scenario's faults wedged it) or an
	// unrecognized error. The seed is the sample, so it is not re-run
	// under another: the point is quarantined.
	ClassTransient FailureClass = "transient"
	// ClassResourceExhausted marks a run halted by a resource budget
	// (events, virtual time, wall clock, or heap). Feeds the per-point
	// circuit breaker: a point that cannot run within budget is
	// quarantined, not silently dropped.
	ClassResourceExhausted FailureClass = "resource-exhausted"
	// ClassPanic marks a recovered panic — a bug by definition. Treated
	// like a protocol bug: fail fast with the bundle.
	ClassPanic FailureClass = "panic"
	// ClassCanceled marks the caller's context ending. Not a failure of
	// the run at all; it propagates and stops the sweep.
	ClassCanceled FailureClass = "canceled"
)

// Classify maps a run error to its failure class. It sees through
// wrapping (errors.As / errors.Is), so engine-side annotation of run
// errors never changes their class.
func Classify(err error) FailureClass {
	if err == nil {
		return ClassNone
	}
	var (
		cancelErr *sim.CancelError
		budgetErr *sim.BudgetError
		checkErr  *sim.CheckError
		stallErr  *sim.StallError
		panicErr  *PanicError
	)
	switch {
	case errors.As(err, &cancelErr),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	case errors.As(err, &budgetErr):
		return ClassResourceExhausted
	case errors.As(err, &checkErr):
		return ClassProtocolBug
	case errors.As(err, &panicErr):
		return ClassPanic
	case errors.As(err, &stallErr):
		return ClassTransient
	default:
		// Unrecognized errors get the benefit of the doubt: the point
		// is quarantined (never dropped) rather than failing the sweep.
		return ClassTransient
	}
}
