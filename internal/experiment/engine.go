package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/repro"
	"wtcp/internal/sim"
)

// This file is the crash-safe experiment engine. A sweep is a sequence
// of points; each point is Replications independent seeded simulations.
// The engine:
//
//   - runs a grid's (point, seed) units on one scheduler (schedule.go)
//     over the caller's goroutine plus the slots its caller lends (in
//     place when none), then aggregates each point's raw records in seed
//     order, so any width produces bit-identical results to the
//     sequential runner;
//   - records every replication's raw measurements as float64 bit
//     patterns, checkpointing each completed point to disk with one
//     checksummed append to the ledger's record log (Ledger.Settle,
//     checkpoint.go), so a killed sweep resumes from the last finished
//     point with byte-identical output;
//   - retries a failed replication with a perturbed seed (retrying a
//     deterministic failure with the same seed can never succeed) and
//     records the substituted seed in the point's metadata — except one
//     a resource budget stopped, which retries under its own seed;
//   - stops cleanly between simulations when ctx ends, without
//     checkpointing a half-run point;
//   - captures a repro bundle (internal/repro) for every replication
//     that exhausts its retries, so the failure can be replayed and
//     shrunk offline with wtcp repro.

// A replication runs one seeded simulation for the scheduler, the only
// loop over seeds in this package, which never learns which simulator
// it drives (DESIGN.md "One replication loop"). seed is the 1-based
// replication index, plus a multiple of retrySeedOffset on a retry; the
// function adds the campaign's BaseSeed itself. budget layers the
// engine's ceilings under whatever budget the run carries
// (Options.runBudget); the function runs under what it returns. A panic
// under it is recovered into a *core.PanicError with a zero repRun.
type replication func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error)

// repRun is what one attempt reports. seed, events and bundle are
// meaningful whether or not the attempt failed.
type repRun struct {
	seed   int64                // the seed the simulator actually ran with
	values []float64            // the point's metric vector, in column order; success only
	events uint64               // kernel events fired, for Health
	abort  string               // why a no-progress watchdog killed a run that returned normally
	bundle func() *repro.Bundle // captures the attempt for wtcp repro; nil: no bundle format
}

// RepRecord is one successful replication's raw measurements. Values
// holds float64 bit patterns (math.Float64bits) in the sweep-defined
// metric order: unlike decimal JSON floats, bit patterns reload exactly,
// which is what makes a resumed sweep byte-identical to an uninterrupted
// one. Seed is the core.Config seed the replication actually ran with —
// for a retried replication, the perturbed substitute. Exported so the
// fleet layer (internal/fleet) can carry records between workers and the
// coordinator's ledger.
type RepRecord struct {
	Seed   int64    `json:"seed"`
	Values []uint64 `json:"values"`
}

// bitsOf encodes measurements for storage.
func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// runRep executes one replication: run at seed, then re-run at once (a
// pause would only hold the slot idle) up to the retry budget when an
// attempt fails retryably (transient or resource-exhausted classes, or
// a watchdog abort). A retry runs under a perturbed seed, except after a
// budget stopped the attempt: a perturbed seed would measure another
// experiment than an unbudgeted run, while the same seed can only finish
// where the ceiling was the host's (wall clock, heap).
// Fail-fast classes — protocol-bug and panic — skip the
// retry loop entirely: a deterministic correctness failure retried
// under a perturbed seed would only bury the bug. A replication that
// fails permanently is captured as a repro bundle (when ReproDir is
// set) and returned as a *repFailure carrying its class and attempt
// count, which the point's circuit breaker (verdict) inspects.
func runRep(ctx context.Context, opt Options, key string, run replication, seed int64) (RepRecord, error) {
	var last repFailure
	var lastBundle func() *repro.Bundle
	attemptSeed := seed
	for attempt := 0; attempt <= opt.retries(); attempt++ {
		if err := ctx.Err(); err != nil {
			return RepRecord{}, err
		}
		if attempt > 0 {
			opt.Health.noteRetry()
		}
		hid := opt.Health.runStarted(key, attemptSeed)
		out, err := runAttempt(ctx, opt, run, attemptSeed)
		opt.Health.runFinished(hid, out.events, err == nil && out.abort == "")
		class := core.Classify(err)
		switch {
		case class == core.ClassCanceled:
			return RepRecord{}, err
		case err == nil && out.abort == "":
			return RepRecord{Seed: out.seed, Values: bitsOf(out.values)}, nil
		case err == nil:
			// Virtual-time stall killed by the watchdog: transient shape,
			// retry under a perturbed seed.
			summary, _, _ := strings.Cut(out.abort, "\n")
			err = fmt.Errorf("watchdog abort: %s", summary)
			class = core.ClassTransient
		}
		last = repFailure{err: fmt.Errorf("seed %d: %w", out.seed, err), class: class, attempts: attempt + 1}
		lastBundle = out.bundle
		if failFast(class) {
			break
		}
		if class != core.ClassResourceExhausted {
			attemptSeed = seed + int64(attempt+1)*retrySeedOffset
		}
	}
	emitBundle(opt, key, seed, lastBundle)
	return RepRecord{}, &last
}

// Splitmix64 is the standard 64-bit finalizer used to turn an identity
// into well-mixed jitter bits (the fleet workers' RPC backoff).
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SleepCtx waits d or until ctx ends, whichever comes first.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runAttempt runs one attempt under the engine's resolved resource
// budget (see Options.runBudget). A panic anywhere under the replication
// function is recovered into a *PanicError, so one pathological
// replication cannot take down a whole campaign.
func runAttempt(ctx context.Context, opt Options, run replication, seed int64) (out repRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			out = repRun{}
			err = &core.PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	return run(ctx, seed, opt.runBudget)
}

// emitBundle writes a repro bundle for a permanently failed replication.
// Bundle-write problems are reported to stderr rather than failing the
// sweep — the replication's own error is the one worth surfacing.
func emitBundle(opt Options, key string, rep int64, capture func() *repro.Bundle) {
	if opt.ReproDir == "" || capture == nil {
		return
	}
	b := capture()
	if b == nil {
		return
	}
	b.Origin = fmt.Sprintf("%s rep %d", key, rep)
	if err := os.MkdirAll(opt.ReproDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "experiment: repro dir: %v\n", err)
		return
	}
	name := fmt.Sprintf("repro-%s-rep%d.json", sanitizeKey(key), rep)
	if err := b.Save(filepath.Join(opt.ReproDir, name)); err != nil {
		fmt.Fprintf(os.Stderr, "experiment: write repro bundle: %v\n", err)
	}
}

// sanitizeKey maps a point key to a safe file-name fragment.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '=':
			return r
		default:
			return '-'
		}
	}, key)
}

// runSim executes one core simulation. It is a variable so engine tests
// can inject failures without constructing a failing scenario.
var runSim = core.RunContext

// errIncomplete refuses a run that ended at the horizon with its transfer
// unfinished: its Summary divides the whole transfer by the horizon, a
// throughput no run achieved.
var errIncomplete = errors.New("transfer did not complete within the horizon")

// coreReplication adapts a core.Config builder and a measurement of its
// result — what the figure sweeps, wtcpd's run executor, wtcp sim and the
// core-based side studies speak — to the loop's replication contract.
// build receives the loop's seed argument. A transfer that did not
// complete fails the attempt like a run error (errIncomplete), so measure
// sees only completed runs; it may refuse one that must not count, which
// fails the attempt the same way.
func coreReplication(build func(seed int64) core.Config, measure func(*core.Result) ([]float64, error)) replication {
	return func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error) {
		cfg := build(seed)
		cfg.Budget = budget(cfg.Budget)
		res, err := runSim(ctx, cfg)
		out := repRun{seed: cfg.Seed}
		if res != nil {
			out.events = res.Events
			if err == nil && res.Aborted {
				out.abort = res.AbortReason
			}
		}
		if err == nil && out.abort == "" {
			if res.Completed {
				out.values, err = measure(res)
			} else {
				err = errIncomplete
			}
		}
		out.bundle = func() *repro.Bundle { return repro.Capture(cfg, res, err) }
		return out, err
	}
}
