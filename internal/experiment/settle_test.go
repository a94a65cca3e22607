package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/metrics"
	"wtcp/internal/sim"
)

// settleSpec is the one point the Settle tests settle.
var settleSpec = PointSpec{Sweep: SweepFig7, Scheme: "basic", Bad: time.Second, Size: 512}

const settleKey = "wan/basic/bad=1s/size=512"

// settleOpts: two replications, no retries, so a run count is exactly
// a replication count.
func settleOpts() Options {
	return Options{Replications: 2, Retries: -1}
}

// countRuns stubs the simulator with one whose measurements are a
// function of the seed alone and returns its call counter.
func countRuns(t *testing.T) *atomic.Int64 {
	t.Helper()
	var runs atomic.Int64
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		return &core.Result{Completed: true, Summary: metrics.Summary{ThroughputKbps: float64(cfg.Seed), Goodput: 0.5}}, nil
	})
	return &runs
}

// exhaustRuns stubs the simulator with one whose every run exhausts its
// wall-clock budget, calling then (if set) on each run.
func exhaustRuns(t *testing.T, then func()) *atomic.Int64 {
	t.Helper()
	var runs atomic.Int64
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		if then != nil {
			then()
		}
		return nil, &sim.BudgetError{Kind: sim.BudgetWall, Limit: 1, Value: 2}
	})
	return &runs
}

// onDisk reads the settleOpts checkpoint file as it stands (zero when
// absent).
func onDisk(t *testing.T, path string) checkpointFile {
	t.Helper()
	return readLedger(t, path, settleOpts())
}

// readLedger reads the checkpoint file at path through OpenLedger, into
// the version 1 layout's shape (zero when absent). It opens a copy, so
// the ledger at path may be open, and the file is left as it is.
func readLedger(t *testing.T, path string, opt Options) checkpointFile {
	t.Helper()
	var f checkpointFile
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return f
	}
	if err != nil {
		t.Fatal(err)
	}
	copied := filepath.Join(t.TempDir(), "copy.ckpt")
	if err := os.WriteFile(copied, data, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(copied, opt)
	if err != nil {
		t.Fatalf("checkpoint on disk does not load: %v", err)
	}
	defer led.Close()
	for _, k := range led.order {
		f.Points = append(f.Points, pointRecord{Key: k, Reps: led.points[k]})
	}
	f.Quarantined = led.Quarantined()
	return f
}

func openSettleLedger(t *testing.T) (*Ledger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := OpenLedger(path, settleOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(led.Close)
	return led, path
}

// lateCtx reports itself canceled from the second Err call after arm:
// the first is executePoint's own was-I-cancelled check, so the
// cancellation lands exactly in the window Settle's
// deadline-vs-quarantine rule exists for — after the point was
// classified, before it is recorded.
type lateCtx struct {
	context.Context
	armed atomic.Bool
	calls atomic.Int32
}

func (c *lateCtx) Err() error {
	if c.armed.Load() && c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestSettle pins the one routine every executor settles a point
// through, case by case, counting simulator runs.
func TestSettle(t *testing.T) {
	ctx := context.Background()
	recorded := []RepRecord{{Seed: 7, Values: []uint64{1, 2}}, {Seed: 8, Values: []uint64{3, 4}}}
	quar := Quarantine{Key: settleKey, Class: string(core.ClassResourceExhausted), Attempts: 2, Reason: "earlier life"}

	t.Run("settled key loads without running", func(t *testing.T) {
		runs := countRuns(t)
		led, _ := openSettleLedger(t)
		if err := led.Put(settleKey, recorded); err != nil {
			t.Fatal(err)
		}
		opt := settleOpts()
		opt.OnPoint = func(string) { t.Error("OnPoint fired for a reloaded point") }
		out, err := led.Settle(ctx, opt, settleSpec)
		if err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 0 {
			t.Errorf("settled key ran %d simulations, want 0", runs.Load())
		}
		if out.Key != settleKey || out.Quarantine != nil || !reflect.DeepEqual(out.Reps, recorded) {
			t.Errorf("outcome = %+v, want the recorded replications", out)
		}
	})

	t.Run("recorded quarantine replays to the supervisor", func(t *testing.T) {
		runs := countRuns(t)
		led, _ := openSettleLedger(t)
		if err := led.PutQuarantine(quar); err != nil {
			t.Fatal(err)
		}
		opt := settleOpts()
		opt.Supervise = NewSupervisor()
		out, err := led.Settle(ctx, opt, settleSpec)
		if err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 0 {
			t.Errorf("quarantined key ran %d simulations, want 0", runs.Load())
		}
		if out.Quarantine == nil || *out.Quarantine != quar || out.Reps != nil {
			t.Errorf("outcome = %+v, want the recorded quarantine", out)
		}
		if qs := opt.Supervise.Quarantined(); len(qs) != 1 || qs[0] != quar {
			t.Errorf("supervisor holds %+v, want the replayed quarantine", qs)
		}

		// Unsupervised means all-or-nothing: the quarantine is not an
		// answer, the point runs.
		out, err = led.Settle(ctx, settleOpts(), settleSpec)
		if err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 2 || len(out.Reps) != 2 {
			t.Errorf("unsupervised settle over a quarantine: %d runs, outcome %+v; want 2 fresh replications", runs.Load(), out)
		}
	})

	t.Run("fresh success is recorded, then reported", func(t *testing.T) {
		runs := countRuns(t)
		led, path := openSettleLedger(t)
		opt := settleOpts()
		var reported []string
		opt.OnPoint = func(key string) {
			reported = append(reported, key)
			if f := onDisk(t, path); len(f.Points) != 1 || f.Points[0].Key != key {
				t.Errorf("OnPoint(%s) fired before the point was on disk: %+v", key, f.Points)
			}
		}
		out, err := led.Settle(ctx, opt, settleSpec)
		if err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 2 || len(out.Reps) != 2 || out.Quarantine != nil {
			t.Fatalf("%d runs, outcome %+v; want 2 replications", runs.Load(), out)
		}
		if !reflect.DeepEqual(reported, []string{settleKey}) {
			t.Errorf("OnPoint calls = %v, want exactly [%s]", reported, settleKey)
		}
		if f := onDisk(t, path); !reflect.DeepEqual(f.Points[0].Reps, out.Reps) || len(f.Quarantined) != 0 {
			t.Errorf("disk holds %+v, want the returned replications", f)
		}
		again, err := led.Settle(ctx, opt, settleSpec)
		if err != nil || runs.Load() != 2 || !reflect.DeepEqual(again, out) || len(reported) != 1 {
			t.Errorf("second settle: err %v, %d runs, %d reports, outcome %+v; want a silent reload", err, runs.Load(), len(reported), again)
		}
	})

	t.Run("fresh quarantine is recorded", func(t *testing.T) {
		runs := exhaustRuns(t, nil)
		led, path := openSettleLedger(t)
		opt := settleOpts()
		opt.Supervise = NewSupervisor()
		opt.OnPoint = func(string) { t.Error("OnPoint fired for a quarantined point") }
		out, err := led.Settle(ctx, opt, settleSpec)
		if err != nil {
			t.Fatal(err)
		}
		if out.Quarantine == nil || out.Quarantine.Class != string(core.ClassResourceExhausted) || out.Reps != nil {
			t.Fatalf("outcome = %+v, want a resource-exhausted quarantine", out)
		}
		if runs.Load() != 2 {
			t.Errorf("%d runs, want 2", runs.Load())
		}
		f := onDisk(t, path)
		if len(f.Points) != 0 || len(f.Quarantined) != 1 || f.Quarantined[0] != *out.Quarantine {
			t.Errorf("disk holds %+v, want exactly the returned quarantine", f)
		}
		if qs := opt.Supervise.Quarantined(); len(qs) != 1 || qs[0] != *out.Quarantine {
			t.Errorf("supervisor holds %+v, want the fresh quarantine", qs)
		}
	})

	t.Run("exhaustion with the context done is the interruption", func(t *testing.T) {
		late := &lateCtx{Context: ctx}
		exhaustRuns(t, func() { late.armed.Store(true) })
		led, path := openSettleLedger(t)
		opt := settleOpts()
		opt.Replications = 1
		opt.Supervise = NewSupervisor()
		out, err := led.Settle(late, opt, settleSpec)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (outcome %+v), want context.Canceled", err, out)
		}
		if f := onDisk(t, path); len(f.Points)+len(f.Quarantined) != 0 {
			t.Errorf("an interruption was recorded: %+v", f)
		}
		if qs := opt.Supervise.Quarantined(); len(qs) != 0 {
			t.Errorf("an interruption reached the supervisor: %+v", qs)
		}
		if led.Has(settleKey) {
			t.Error("the key counts as settled after an interruption")
		}
	})

	t.Run("nil ledger executes and records nothing", func(t *testing.T) {
		runs := countRuns(t)
		var led *Ledger
		opt := settleOpts()
		reports := 0
		opt.OnPoint = func(string) { reports++ }
		for i := 1; i <= 2; i++ {
			out, err := led.Settle(ctx, opt, settleSpec)
			if err != nil {
				t.Fatal(err)
			}
			if int(runs.Load()) != 2*i || len(out.Reps) != 2 || reports != i {
				t.Errorf("settle %d on a nil ledger: %d runs, %d reports, outcome %+v; want a full fresh execution each time", i, runs.Load(), reports, out)
			}
		}
		led.Close()
	})
}

// TestSettleConcurrentSameKey: two executors settling one key on one
// shared ledger (two wtcpd slots on overlapping sweeps) both execute —
// nothing is held across execution — and exactly one record lands;
// both get the recorded bits.
func TestSettleConcurrentSameKey(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		// Both executions are in flight before either can record.
		barrier.Done()
		barrier.Wait()
		return &core.Result{Completed: true, Summary: metrics.Summary{ThroughputKbps: float64(cfg.Seed)}}, nil
	})
	led, path := openSettleLedger(t)
	opt := settleOpts()
	opt.Replications = 1
	var reports atomic.Int32
	opt.OnPoint = func(string) { reports.Add(1) }

	outs := make([]PointOutcome, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = led.Settle(context.Background(), opt, settleSpec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("settle %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) || len(outs[0].Reps) != 1 {
		t.Errorf("the two settles returned different outcomes:\n%+v\n%+v", outs[0], outs[1])
	}
	if f := onDisk(t, path); len(f.Points) != 1 || !reflect.DeepEqual(f.Points[0].Reps, outs[0].Reps) {
		t.Errorf("disk holds %+v, want exactly one record of the returned bits", f.Points)
	}
	if reports.Load() != 1 {
		t.Errorf("OnPoint fired %d times, want once (first record wins)", reports.Load())
	}
}
