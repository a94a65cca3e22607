package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// TestQuarantineAnswersOnlyNoLargerBudgets: a point quarantined for
// exhausting an events, virtual-time or wall-clock limit loads, without
// a run, for a caller whose limit of that kind is no larger, and runs
// for one whose limit is larger, unlimited, or unset (the engine
// default, or none). A quarantine of another class loads for every
// caller.
func TestQuarantineAnswersOnlyNoLargerBudgets(t *testing.T) {
	exhausted := func(kind string, limit int64) Quarantine {
		return Quarantine{Key: settleKey, Class: string(core.ClassResourceExhausted), Attempts: 1,
			Reason: "recorded", Ceiling: kind, Limit: limit}
	}
	events := exhausted(sim.BudgetEvents, 3000)
	virtual := exhausted(sim.BudgetVirtual, int64(30*time.Second))
	wall := exhausted(sim.BudgetWall, int64(time.Minute))
	transient := Quarantine{Key: settleKey, Class: string(core.ClassTransient), Attempts: 2, Reason: "recorded"}
	for _, c := range []struct {
		q       Quarantine
		caller  sim.Budget
		answers bool
	}{
		{events, sim.Budget{MaxEvents: 3000}, true},
		{events, sim.Budget{MaxEvents: 2000}, true},
		{events, sim.Budget{MaxEvents: 3001}, false},
		{events, sim.Budget{MaxEvents: -1}, false},
		{events, sim.Budget{}, false},
		{virtual, sim.Budget{MaxVirtual: 30 * time.Second}, true},
		{virtual, sim.Budget{MaxVirtual: 10 * time.Second}, true},
		{virtual, sim.Budget{MaxVirtual: time.Minute}, false},
		{virtual, sim.Budget{MaxVirtual: -1}, false},
		{virtual, sim.Budget{}, false},
		{wall, sim.Budget{WallClock: time.Minute}, true},
		{wall, sim.Budget{WallClock: time.Second}, true},
		{wall, sim.Budget{WallClock: 2 * time.Minute}, false},
		{wall, sim.Budget{WallClock: -1}, false},
		{wall, sim.Budget{}, false},
		{transient, sim.Budget{MaxEvents: -1, WallClock: -1}, true},
	} {
		t.Run(fmt.Sprintf("%s=%d/%+v", c.q.Ceiling, c.q.Limit, c.caller), func(t *testing.T) {
			runs := countRuns(t)
			led, _ := openSettleLedger(t)
			q := c.q
			if _, err := led.Record(PointOutcome{Key: settleKey, Quarantine: &q}); err != nil {
				t.Fatal(err)
			}
			opt := settleOpts()
			opt.RunBudget = c.caller
			out, err := settleOne(context.Background(), led, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Quarantine != nil && runs.Load() == 0; got != c.answers {
				t.Errorf("outcome %+v after %d runs; want the quarantine to answer: %v", out, runs.Load(), c.answers)
			}
			if !c.answers && len(led.Quarantined()) != 0 {
				t.Errorf("the measurement left the quarantine %+v in the ledger", led.Quarantined())
			}
		})
	}
}

// TestCeilinglessQuarantineRunsOnce: a resource-exhausted quarantine
// written before quarantines recorded their ceiling opens, answers no
// budget, and its point runs once under any: the record that run
// leaves settles it.
func TestCeilinglessQuarantineRunsOnce(t *testing.T) {
	opt := settleOpts()
	data, err := appendJSON(nil, recHeader, ledgerHeader{logVersion, opt.WithDefaults().fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = appendJSON(data, recQuarantine, map[string]any{"key": settleKey, "class": "resource-exhausted",
		"attempts": 1, "reason": "sim: events budget exhausted"}); err != nil {
		t.Fatal(err)
	}
	for _, caller := range []sim.Budget{{}, {MaxEvents: 3000}, {MaxEvents: -1, WallClock: -1}} {
		runs := countRuns(t)
		path := filepath.Join(t.TempDir(), "parent.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		led, err := OpenLedger(path, opt)
		if err != nil {
			t.Fatalf("a parent ledger with a ceilingless quarantine does not open: %v", err)
		}
		o := opt
		o.RunBudget = caller
		for pass := 0; pass < 2; pass++ {
			if out, err := settleOne(context.Background(), led, o); err != nil || out.Quarantine != nil {
				t.Fatalf("budget %+v, pass %d: %+v, %v; want the point measured", caller, pass, out, err)
			}
		}
		led.Close()
		if got := runs.Load(); got != int64(opt.Replications) {
			t.Errorf("budget %+v: %d runs over two settles, want one point's %d", caller, got, opt.Replications)
		}
	}
}

// TestExhaustedReplicationTripsTheBreaker: a point one replication of
// which exhausted its budget is quarantined as resource-exhausted, with
// the ceiling, even when a transient failure came first in seed order —
// else its quarantine would answer every budget.
func TestExhaustedReplicationTripsTheBreaker(t *testing.T) {
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.Seed == 1 {
			return nil, errors.New("synthetic transient failure")
		}
		return nil, &sim.BudgetError{Kind: sim.BudgetEvents, Limit: 3000, Value: 3000}
	})
	out, err := settleOne(context.Background(), nil, settleOpts())
	if q := out.Quarantine; err != nil || q == nil || q.Class != string(core.ClassResourceExhausted) ||
		q.Ceiling != sim.BudgetEvents || q.Limit != 3000 {
		t.Errorf("outcome %+v, err %v; want an events-budget quarantine with its ceiling", q, err)
	}
}
