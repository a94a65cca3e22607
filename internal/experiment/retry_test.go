package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/recordlog"
	"wtcp/internal/units"
)

// TestRetriedSweepWritesIdenticalLedger: a retry runs at once, under
// its perturbed seed, and leaves nothing clock-derived in its record,
// so two runs of a sweep with a retried replication write identical
// ledger bytes.
func TestRetriedSweepWritesIdenticalLedger(t *testing.T) {
	const baseSeed = 300
	failing := int64(baseSeed + 1) // replication 1's first-attempt seed
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.Seed == failing {
			return nil, errors.New("synthetic transient failure")
		}
		r := &core.Result{Completed: true}
		r.Summary.ThroughputKbps = float64(cfg.Seed)
		r.Summary.Goodput = 1
		return r, nil
	})
	opt := Options{
		Replications: 2,
		BaseSeed:     baseSeed,
		Retries:      1,
		PacketSizes:  []units.ByteSize{512},
		BadPeriods:   []time.Duration{time.Second},
	}
	var path string
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
		path = o.Checkpoint
		return data
	}
	if first, second := run("a.json"), run("b.json"); !bytes.Equal(first, second) {
		t.Error("two runs of the same sweep wrote different checkpoint bytes")
	}
	f := readLedger(t, path, opt)
	if len(f.Points) != 1 || len(f.Points[0].Reps) != 2 {
		t.Fatalf("checkpoint holds %+v, want 1 point with 2 reps", f.Points)
	}
	if seed := f.Points[0].Reps[0].Seed; seed != failing+retrySeedOffset {
		t.Errorf("retried rep ran seed %d, want perturbed %d", seed, failing+retrySeedOffset)
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
