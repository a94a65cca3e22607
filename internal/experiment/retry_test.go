package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/recordlog"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// stubWallCeilingOnce stubs the simulator so that every other attempt
// at seed failing, starting with the first, hits the wall-clock ceiling:
// once per sweep, the same-seed re-run clears it. Every run that
// completes reports its seed as its throughput. It returns the run count.
func stubWallCeilingOnce(t *testing.T, failing int64) *atomic.Int64 {
	var runs, failingRuns atomic.Int64
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		if cfg.Seed == failing && failingRuns.Add(1)%2 == 1 {
			return nil, &sim.BudgetError{Kind: sim.BudgetWall, Limit: int64(time.Minute), Value: int64(time.Minute)}
		}
		r := &core.Result{Completed: true}
		r.Summary.ThroughputKbps = float64(cfg.Seed)
		r.Summary.Goodput = 1
		return r, nil
	})
	return &runs
}

// retryOpts is a one-point, two-replication Fig. 7 sweep from baseSeed.
func retryOpts(baseSeed int64) Options {
	return Options{
		Replications: 2,
		BaseSeed:     baseSeed,
		PacketSizes:  []units.ByteSize{512},
		BadPeriods:   []time.Duration{time.Second},
	}
}

// TestHostCeilingRetryRunsItsOwnSeed: a replication a wall-clock
// ceiling stopped re-runs at once under its own seed, the sample comes
// from the re-run, and the point records the seeds its replications ran.
func TestHostCeilingRetryRunsItsOwnSeed(t *testing.T) {
	const baseSeed = 100
	failing := int64(baseSeed + 1) // replication 1's seed
	runs := stubWallCeilingOnce(t, failing)
	opt := retryOpts(baseSeed)
	opt.Health = NewHealth()
	opt.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := points[0].ThroughputKbps.Mean(); m != float64(failing+failing+1)/2 {
		t.Errorf("sample mean %v, want the mean of seeds %d and %d", m, failing, failing+1)
	}
	if n, snap := runs.Load(), opt.Health.Snapshot(); n != 3 || snap.Retried != 1 {
		t.Errorf("%d runs and %d retries, want 3 and 1 (one same-seed re-run)", n, snap.Retried)
	}
	f := readLedger(t, opt.Checkpoint, opt)
	if len(f.Points) != 1 || !slices.Equal(seedsOf(f.Points[0].Reps), []int64{failing, failing + 1}) {
		t.Fatalf("checkpoint holds %+v, want 1 point with the seeds %d and %d", f.Points, failing, failing+1)
	}
}

// TestRetriedSweepWritesIdenticalLedger: a host-ceiling retry runs at
// once, under the replication's own seed, and leaves nothing
// clock-derived in its record, so two runs of a sweep with a retried
// replication write identical ledger bytes.
func TestRetriedSweepWritesIdenticalLedger(t *testing.T) {
	const baseSeed = 300
	runs := stubWallCeilingOnce(t, baseSeed+1)
	opt := retryOpts(baseSeed)
	run := func(name string) []byte {
		o := opt
		o.Checkpoint = filepath.Join(t.TempDir(), name)
		if _, err := Fig7(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if first, second := run("a.json"), run("b.json"); !bytes.Equal(first, second) {
		t.Error("two runs of the same sweep wrote different checkpoint bytes")
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("%d runs over two sweeps, want 6 (one same-seed re-run each)", n)
	}
}

// TestParentBackoffRecordLoads: a ledger whose point records carry the
// backoff_ms field earlier builds wrote for a retried replication
// still opens, and its point loads without a run.
func TestParentBackoffRecordLoads(t *testing.T) {
	runs := countRuns(t)
	opt := settleOpts()
	path := filepath.Join(t.TempDir(), "parent.ckpt")
	data, err := appendJSON(nil, recHeader, ledgerHeader{logVersion, opt.WithDefaults().fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	data = recordlog.AppendRecord(data, recPoint,
		[]byte(`{"key":"`+settleKey+`","reps":[{"seed":1048577,"values":[1,2],"backoff_ms":[61]},{"seed":2,"values":[3,4]}]}`))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(path, opt)
	if err != nil {
		t.Fatalf("a parent ledger with backoff_ms does not open: %v", err)
	}
	defer led.Close()
	out, err := settleOne(context.Background(), led, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := []RepRecord{{Seed: 1048577, Values: []uint64{1, 2}}, {Seed: 2, Values: []uint64{3, 4}}}; !reflect.DeepEqual(out.Reps, want) || runs.Load() != 0 {
		t.Errorf("loaded %+v after %d runs, want %+v and no run", out.Reps, runs.Load(), want)
	}
}
