// Package repro turns a simulation failure into a self-contained,
// replayable artifact. When an invariant check fires, the no-progress
// watchdog aborts a run, or a run panics, the experiment engine captures
// a Bundle: the complete scenario (including the chaos plan and the
// exact seed), a classification of the failure, and its diagnostic
// detail. Because every run is a deterministic function of its Config,
// the bundle alone reproduces the failure bit-for-bit on any machine —
// no logs, corefiles, or luck required.
//
// The package also shrinks bundles: Shrink greedily simplifies the
// scenario (dropping chaos faults, halving the transfer and horizon)
// while re-replaying after each candidate edit, keeping only edits that
// preserve the original failure. The result is a minimal failing case
// suitable for a bug report or a regression test.
package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"wtcp/internal/atomicfile"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// Version is the current bundle schema version.
const Version = 1

// Failure kinds a bundle can carry.
const (
	// KindInvariant: a runtime invariant check failed (protocol bug).
	KindInvariant = "invariant"
	// KindWatchdog: the no-progress watchdog aborted the run.
	KindWatchdog = "watchdog"
	// KindPanic: the run panicked and was recovered into an error.
	KindPanic = "panic"
	// KindBudget: the run exhausted a resource budget (event, virtual-
	// time, wall-clock, or heap ceiling — see sim.BudgetError).
	KindBudget = "budget"
	// KindError: any other run error (bad config, channel setup, ...).
	KindError = "error"
	// KindNone classifies a replay that finished without failing — it
	// never appears in a saved bundle.
	KindNone = "none"
)

// Bundle is a self-contained failure reproduction: replaying Config
// deterministically re-derives the failure described by Kind/Failure.
type Bundle struct {
	Version int `json:"version"`
	// Origin records where the failure was observed (sweep point and
	// replication), for humans reading the file.
	Origin string `json:"origin,omitempty"`
	// Kind classifies the failure (KindInvariant, KindWatchdog,
	// KindPanic, KindError).
	Kind string `json:"kind"`
	// Check names the violated invariant when Kind is KindInvariant.
	Check string `json:"check,omitempty"`
	// Failure is the one-line failure summary.
	Failure string `json:"failure"`
	// Detail carries the full diagnostic: watchdog snapshot, panic
	// stack, or complete error text.
	Detail string `json:"detail,omitempty"`
	// BudgetKind, BudgetLimit, and BudgetValue record which resource
	// ceiling a KindBudget run exhausted, the configured limit, and the
	// consumption at abort (units per sim.BudgetError).
	BudgetKind  string `json:"budget_kind,omitempty"`
	BudgetLimit int64  `json:"budget_limit,omitempty"`
	BudgetValue int64  `json:"budget_value,omitempty"`
	// Config is the complete scenario, including Seed and the chaos
	// plan. Replaying it reproduces the failure.
	Config core.Config `json:"config"`
}

// Capture classifies a finished run and, if it failed, returns the
// bundle reproducing it. It returns nil for a run that did not fail —
// including a run halted by context cancellation, which is the caller's
// deadline rather than a defect worth archiving.
func Capture(cfg core.Config, res *core.Result, runErr error) *Bundle {
	b := &Bundle{Version: Version, Config: cfg}
	var checkErr *sim.CheckError
	var panicErr *core.PanicError
	var cancelErr *sim.CancelError
	var budgetErr *sim.BudgetError
	switch {
	case errors.As(runErr, &cancelErr),
		errors.Is(runErr, context.Canceled),
		errors.Is(runErr, context.DeadlineExceeded):
		return nil
	case errors.As(runErr, &checkErr):
		b.Kind = KindInvariant
		b.Check = checkErr.Name
		b.Failure, _, _ = strings.Cut(checkErr.Error(), "\n")
		b.Detail = checkErr.Error()
	case errors.As(runErr, &panicErr):
		b.Kind = KindPanic
		b.Failure, _, _ = strings.Cut(panicErr.Value, "\n")
		b.Detail = panicErr.Value + "\n" + panicErr.Stack
	case errors.As(runErr, &budgetErr):
		b.Kind = KindBudget
		b.BudgetKind = budgetErr.Kind
		b.BudgetLimit = budgetErr.Limit
		b.BudgetValue = budgetErr.Value
		b.Failure, _, _ = strings.Cut(budgetErr.Error(), "\n")
		b.Detail = runErr.Error()
	case runErr != nil:
		b.Kind = KindError
		b.Failure, _, _ = strings.Cut(runErr.Error(), "\n")
		b.Detail = runErr.Error()
	case res != nil && res.Aborted:
		b.Kind = KindWatchdog
		b.Failure, _, _ = strings.Cut(res.AbortReason, "\n")
		b.Detail = res.AbortReason
	default:
		return nil
	}
	return b
}

// Save writes the bundle as indented JSON via temp-file-plus-rename, so
// a crash mid-write never leaves a truncated bundle at path.
func (b *Bundle) Save(path string) error {
	data, err := b.encode()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, data); err != nil {
		return fmt.Errorf("repro: save bundle: %w", err)
	}
	return nil
}

// encode renders the bundle file's bytes: indented JSON and a newline.
func (b *Bundle) encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("repro: encode bundle: %w", err)
	}
	return append(data, '\n'), nil
}

// Load reads and validates a bundle file.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("repro: load bundle: %w", err)
	}
	return decode(path, data)
}

// decode parses and validates the bytes of the bundle file at path; every
// refusal names the file.
func decode(path string, data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("repro: parse bundle %s: %w", path, err)
	}
	if b.Version != Version {
		return nil, fmt.Errorf("repro: bundle %s has schema version %d, this build understands %d", path, b.Version, Version)
	}
	switch b.Kind {
	case KindInvariant, KindWatchdog, KindPanic, KindBudget, KindError:
	default:
		return nil, fmt.Errorf("repro: bundle %s has unknown failure kind %q", path, b.Kind)
	}
	return &b, nil
}

// Outcome is what one replay of a bundle's scenario produced.
type Outcome struct {
	// Kind classifies the replay like a bundle's Kind; KindNone means
	// the run finished without failing.
	Kind string
	// Check is the violated invariant's name for KindInvariant.
	Check string
	// BudgetKind is the exhausted ceiling for KindBudget.
	BudgetKind string
	// Failure is the one-line summary (empty for KindNone).
	Failure string
}

// Matches reports whether the outcome reproduces the bundle's failure:
// the same kind, for invariant violations the same named check, and for
// budget exhaustion the same ceiling. The failure text itself is not
// compared — virtual times and counters in the summary legitimately
// differ across code versions while the defect is the same.
func (o Outcome) Matches(b *Bundle) bool {
	if o.Kind != b.Kind {
		return false
	}
	switch b.Kind {
	case KindInvariant:
		return o.Check == b.Check
	case KindBudget:
		return o.BudgetKind == b.BudgetKind
	default:
		return true
	}
}

// Replay runs the bundle's scenario once and classifies what happened.
// It errors only when ctx ends; a reproduced (or vanished) failure is an
// Outcome, not an error.
func Replay(ctx context.Context, b *Bundle) (Outcome, error) {
	res, err := core.RunContext(ctx, b.Config)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return Outcome{}, err
	}
	captured := Capture(b.Config, res, err)
	if captured == nil {
		return Outcome{Kind: KindNone}, nil
	}
	return Outcome{Kind: captured.Kind, Check: captured.Check,
		BudgetKind: captured.BudgetKind, Failure: captured.Failure}, nil
}

// ShrinkStats summarizes a shrink session.
type ShrinkStats struct {
	// Replays counts simulations run while shrinking.
	Replays int
	// Accepted counts candidate simplifications that kept the failure.
	Accepted int
}

// DefaultShrinkReplays bounds a shrink session's simulation budget.
const DefaultShrinkReplays = 120

// Shrink greedily minimizes the bundle's scenario while preserving its
// failure: it tries dropping each chaos fault, the handoff, and the
// notification faults, halving the transfer size, and halving the
// horizon, replaying after every candidate edit and keeping only edits
// whose outcome still Matches the original failure. Passes repeat until
// a whole pass accepts nothing or maxReplays simulations have run
// (non-positive uses DefaultShrinkReplays). The returned bundle's
// Failure/Detail describe the failure as reproduced by the minimized
// scenario.
func Shrink(ctx context.Context, b *Bundle, maxReplays int) (*Bundle, ShrinkStats, error) {
	if maxReplays <= 0 {
		maxReplays = DefaultShrinkReplays
	}
	var stats ShrinkStats
	cur := *b
	// try replays cand; on a match it becomes the current scenario.
	try := func(cand core.Config) (bool, error) {
		if stats.Replays >= maxReplays {
			return false, nil
		}
		stats.Replays++
		o, err := Replay(ctx, &Bundle{Version: Version, Kind: b.Kind, Check: b.Check, Config: cand})
		if err != nil {
			return false, err
		}
		if !o.Matches(b) {
			return false, nil
		}
		stats.Accepted++
		cur.Config = cand
		cur.Failure = o.Failure
		return true, nil
	}

	// dropEach walks one fault list, retrying the same index after an
	// accepted drop (the list just shrank under it).
	dropEach := func(length func() int, drop func(*chaos.Config, int)) (bool, error) {
		improved := false
		for i := 0; i < length(); {
			ok, err := try(dropFault(cur.Config, func(c *chaos.Config) { drop(c, i) }))
			if err != nil {
				return improved, err
			}
			if ok {
				improved = true
				continue
			}
			i++
		}
		return improved, nil
	}

	for {
		improved := false

		// Drop chaos faults one at a time — the largest semantic
		// simplifications first.
		if cur.Config.Chaos.Enabled() {
			for _, faults := range []struct {
				length func() int
				drop   func(*chaos.Config, int)
			}{
				{func() int { return len(cur.Config.Chaos.Blackouts) },
					func(c *chaos.Config, i int) { c.Blackouts = deleteAt(c.Blackouts, i) }},
				{func() int { return len(cur.Config.Chaos.Storms) },
					func(c *chaos.Config, i int) { c.Storms = deleteAt(c.Storms, i) }},
				{func() int { return len(cur.Config.Chaos.Crashes) },
					func(c *chaos.Config, i int) { c.Crashes = deleteAt(c.Crashes, i) }},
				{func() int { return len(cur.Config.Chaos.Packets) },
					func(c *chaos.Config, i int) { c.Packets = deleteAt(c.Packets, i) }},
				{func() int { return len(cur.Config.Chaos.EventStorms) },
					func(c *chaos.Config, i int) { c.EventStorms = deleteAt(c.EventStorms, i) }},
			} {
				ok, err := dropEach(faults.length, faults.drop)
				if err != nil {
					return nil, stats, err
				}
				improved = improved || ok
			}
			for _, drop := range []struct {
				present bool
				clear   func(*chaos.Config)
			}{
				{cur.Config.Chaos.Handoff != nil, func(c *chaos.Config) { c.Handoff = nil }},
				{cur.Config.Chaos.Notify != (chaos.NotifyFaults{}), func(c *chaos.Config) { c.Notify = chaos.NotifyFaults{} }},
			} {
				if !drop.present {
					continue
				}
				ok, err := try(dropFault(cur.Config, drop.clear))
				if err != nil {
					return nil, stats, err
				}
				improved = improved || ok
			}
		}

		// Halve the transfer (floor: one segment).
		if half := cur.Config.TransferSize / 2; half >= cur.Config.MSS() && half < cur.Config.TransferSize {
			cand := cur.Config
			cand.TransferSize = half
			ok, err := try(cand)
			if err != nil {
				return nil, stats, err
			}
			improved = improved || ok
		}

		// Halve the horizon (floor: one second).
		if half := cur.Config.Horizon / 2; half >= time.Second {
			cand := cur.Config
			cand.Horizon = half
			ok, err := try(cand)
			if err != nil {
				return nil, stats, err
			}
			improved = improved || ok
		}

		if !improved || stats.Replays >= maxReplays {
			break
		}
	}
	if cur.Config.Chaos != nil && !cur.Config.Chaos.Enabled() {
		cur.Config.Chaos = nil
	}
	return &cur, stats, nil
}

// dropFault deep-copies the config's chaos plan and applies edit to the
// copy, so candidate edits never alias the current scenario's slices. The
// plan is copied whole and then its lists cloned, so a fault kind added
// to chaos.Config is carried along without an edit here.
func dropFault(cfg core.Config, edit func(*chaos.Config)) core.Config {
	var ch chaos.Config
	if cfg.Chaos != nil {
		ch = *cfg.Chaos
		ch.Blackouts = append([]chaos.Blackout(nil), ch.Blackouts...)
		ch.Storms = append([]chaos.Storm(nil), ch.Storms...)
		ch.Crashes = append([]chaos.Crash(nil), ch.Crashes...)
		ch.Packets = append([]chaos.PacketFaults(nil), ch.Packets...)
		ch.EventStorms = append([]chaos.EventStorm(nil), ch.EventStorms...)
	}
	edit(&ch)
	cfg.Chaos = &ch
	return cfg
}

// deleteAt returns s without element i (copy, not in place).
func deleteAt[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
