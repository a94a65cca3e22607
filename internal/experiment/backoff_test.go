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
	"wtcp/internal/units"
)

// TestRetryBackoffEnvelope pins the retry pause schedule: pure in the
// replication's identity (key, seed, attempt), exponential from
// retryBackoffBase, jitter bounded by half the uncapped delay, and
// never past the cap's envelope no matter how large the attempt.
func TestRetryBackoffEnvelope(t *testing.T) {
	const key = "wan/tahoe/bad=1s/size=512"
	for attempt := 1; attempt <= 10; attempt++ {
		got := retryBackoff(key, 1, attempt)
		if again := retryBackoff(key, 1, attempt); again != got {
			t.Fatalf("attempt %d: backoff not deterministic: %v then %v", attempt, got, again)
		}
		base := retryBackoffBase << (attempt - 1)
		if base <= 0 || base > retryBackoffCap {
			base = retryBackoffCap
		}
		if got < base || got > base+base/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, got, base, base+base/2)
		}
	}
	// Absurd attempt counts (shift overflow territory) still land in the
	// capped envelope.
	if d := retryBackoff(key, 1, 500); d < retryBackoffCap || d > retryBackoffCap+retryBackoffCap/2 {
		t.Errorf("attempt 500: backoff %v escaped the cap envelope [%v, %v]",
			d, retryBackoffCap, retryBackoffCap+retryBackoffCap/2)
	}
	// Jitter is identity-derived: two replications retrying in the same
	// instant must not share a schedule (that is the stampede the jitter
	// exists to break up).
	same := true
	for attempt := 1; attempt <= 4; attempt++ {
		if retryBackoff(key, 1, attempt) != retryBackoff(key, 2, attempt) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 share an identical 4-retry schedule; jitter is not identity-derived")
	}
}

// TestRetryBackoffRecordedAndByteIdentical: a retried replication must
// record the pauses it actually waited through in its checkpoint
// record, and — because the schedule is seed-derived, not clocked — a
// re-run of the same sweep must write the identical bytes.
func TestRetryBackoffRecordedAndByteIdentical(t *testing.T) {
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
	var key string
	opt.OnPoint = func(k string) { key = k }

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
	first := run("a.json")
	second := run("b.json")
	if !bytes.Equal(first, second) {
		t.Errorf("two runs of the same sweep wrote different checkpoint bytes; backoff metadata is not deterministic")
	}

	f := readLedger(t, path, opt)
	if len(f.Points) != 1 || len(f.Points[0].Reps) != 2 {
		t.Fatalf("checkpoint holds %d points, want 1 with 2 reps", len(f.Points))
	}
	retried, clean := f.Points[0].Reps[0], f.Points[0].Reps[1]
	if retried.Seed != failing+retrySeedOffset {
		t.Fatalf("retried rep ran seed %d, want perturbed %d", retried.Seed, failing+retrySeedOffset)
	}
	// runRep identifies a replication by its 1-based index, so the
	// retried first replication's recorded pause is retryBackoff(key, 1, 1).
	want := []int64{retryBackoff(key, 1, 1).Milliseconds()}
	if !reflect.DeepEqual(retried.Backoffs, want) {
		t.Errorf("retried rep recorded backoff_ms %v, want %v", retried.Backoffs, want)
	}
	if len(clean.Backoffs) != 0 {
		t.Errorf("first-attempt success recorded backoff_ms %v, want none", clean.Backoffs)
	}
}
