package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/metrics"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// countedSlots is a slot source of n slots that counts the ones held and
// the borrows that succeeded.
func countedSlots(n int32) (borrow func() (func(), bool), held, lent *atomic.Int32) {
	held, lent = new(atomic.Int32), new(atomic.Int32)
	return func() (func(), bool) {
		if held.Add(1) > n {
			held.Add(-1)
			return nil, false
		}
		lent.Add(1)
		return func() { held.Add(-1) }, true
	}, held, lent
}

// jobPoints is n one-replication points whose replication is job(ctx, i)
// for point i.
func jobPoints(n int, job func(ctx context.Context, i int) error) []point {
	points := make([]point, n)
	for i := range points {
		points[i] = point{strconv.Itoa(i), func(ctx context.Context, seed int64, _ func(sim.Budget) sim.Budget) (repRun, error) {
			if err := job(ctx, i); err != nil {
				return repRun{seed: seed}, err
			}
			return repRun{seed: seed, values: []float64{float64(i)}}, nil
		}}
	}
	return points
}

// TestScheduleFirstErrorInIndexOrder: when points fail, the answer is
// the failure a one-at-a-time loop would hit first. A later point that
// fails first cancels the points after it but lets the ones before it
// finish — one of which may fail and become the answer — and no unit
// past the failure starts.
func TestScheduleFirstErrorInIndexOrder(t *testing.T) {
	// Protocol bugs: a class that fails the point rather than
	// quarantining it.
	errEarly := &sim.CheckError{Name: "early", Err: errors.New("early")}
	var errLate error = &sim.CheckError{Name: "late", Err: errors.New("late")}
	for _, tc := range []struct {
		name  string
		early error // what point 0 returns once point 1 has failed
	}{
		{"earlier job succeeds", nil},
		{"earlier job fails later", errEarly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			borrow, held, _ := countedSlots(2) // the caller's goroutine is the third
			lateFailed, running2 := make(chan struct{}), make(chan struct{})
			var canceled0, canceled2 atomic.Bool
			var started [5]atomic.Bool
			points := jobPoints(5, func(ctx context.Context, i int) error {
				started[i].Store(true)
				switch i {
				case 0:
					<-lateFailed
					for deadline := time.Now().Add(10 * time.Second); !canceled2.Load() && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					canceled0.Store(ctx.Err() != nil)
					return tc.early
				case 1:
					// Fail once point 2 runs: a failure lands as soon as
					// it happens, and would otherwise keep point 2 from
					// starting at all.
					<-running2
					close(lateFailed)
					return errLate
				case 2:
					close(running2)
					<-ctx.Done()
					canceled2.Store(true)
					return ctx.Err()
				}
				return nil
			})
			_, err := (*Ledger)(nil).settle(context.Background(), Options{Replications: 1}, points, borrow)
			want := errLate
			if tc.early != nil {
				want = tc.early
			}
			if !errors.Is(err, want) {
				t.Errorf("settle = %v, want %v", err, want)
			}
			if canceled0.Load() || !canceled2.Load() {
				t.Errorf("job 0 canceled: %v, job 2 canceled: %v; want only the job after the failure canceled", canceled0.Load(), canceled2.Load())
			}
			for i := 3; i < 5; i++ {
				if started[i].Load() {
					t.Errorf("job %d started after job 1 failed", i)
				}
			}
			if n := held.Load(); n != 0 {
				t.Errorf("%d borrowed slots still held", n)
			}
		})
	}
}

// TestScheduleWidthOne: a width of 1 is the one-at-a-time loop — the
// same code path, never two units at once and never a borrowed slot —
// and units run point-major, seed-minor.
func TestScheduleWidthOne(t *testing.T) {
	borrow, _, lent := countedSlots(0)
	var running, peak atomic.Int32
	var order []string
	rep := func(key string) replication {
		return func(ctx context.Context, seed int64, _ func(sim.Budget) sim.Budget) (repRun, error) {
			if n := running.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			order = append(order, key+"/"+strconv.FormatInt(seed, 10))
			running.Add(-1)
			return repRun{seed: seed, values: []float64{1}}, nil
		}
	}
	outs, err := (*Ledger)(nil).settle(context.Background(), Options{Replications: 4},
		[]point{{"a", rep("a")}, {"b", rep("b")}}, borrow)
	if err != nil || peak.Load() != 1 || len(order) != 8 || len(outs) != 2 {
		t.Fatalf("err %v, peak concurrency %d, %d units run, %d outcomes; want nil, 1, 8, 2", err, peak.Load(), len(order), len(outs))
	}
	if lent.Load() != 0 {
		t.Error("a width-1 run borrowed a slot")
	}
	want := []string{"a/1", "a/2", "a/3", "a/4", "b/1", "b/2", "b/3", "b/4"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("units ran in order %v, want %v", order, want)
	}
}

// TestNoUnitStartsBeforeASlotIsFree: at 16 replications and a width of
// 2, at most two units are in flight and at most one goroutine beyond
// the caller's exists — a unit gets its goroutine only with its slot.
func TestNoUnitStartsBeforeASlotIsFree(t *testing.T) {
	var mu sync.Mutex
	var running, peak, peakGoroutines int
	buf := make([]byte, 1<<20)
	// inPackage counts the goroutines running code of this package, the
	// test's own included.
	inPackage := func() (n int) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "wtcp/internal/experiment.") {
				n++
			}
		}
		return n
	}
	base := inPackage()
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		mu.Lock()
		running++
		peak = max(peak, running)
		peakGoroutines = max(peakGoroutines, inPackage()-base)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return &core.Result{Completed: true, Summary: metrics.Summary{ThroughputKbps: float64(cfg.Seed)}}, nil
	})
	out, err := RunPointSpec(context.Background(), Options{Replications: 16, Workers: 2}, settleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reps) != 16 {
		t.Fatalf("%d replications, want 16", len(out.Reps))
	}
	if peak > 2 || peakGoroutines > 1 {
		t.Errorf("peak %d units and %d extra goroutines in flight; want at most 2 and 1", peak, peakGoroutines)
	}
	for i, rep := range out.Reps {
		if rep.Seed != int64(i+1) {
			t.Fatalf("records out of seed order: %v", seedsOf(out.Reps))
		}
	}
}

// TestSupervisedSweepSameAtAnyWidth: a Fig 7 with one quarantined point
// gives the same points, the same Health record and the same ledger
// contents at 1, 2 and 4 workers.
func TestSupervisedSweepSameAtAnyWidth(t *testing.T) {
	stormRunSim(t, time.Second, units.ByteSize(512))
	type result struct {
		csv    string
		quars  []Quarantine
		ledger map[string][]RepRecord
		ledgQ  []Quarantine
	}
	run := func(workers int) result {
		health := NewHealth()
		opt := governedOpts(health)
		opt.Workers = workers
		opt.Checkpoint = filepath.Join(t.TempDir(), "ledger.json")
		points, err := Fig7(context.Background(), opt)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		f := readLedger(t, opt.Checkpoint, opt)
		led := map[string][]RepRecord{}
		for _, p := range f.Points {
			led[p.Key] = p.Reps
		}
		return result{ThroughputTable.CSV(points), quarantined(health), led, f.Quarantined}
	}
	want := run(1)
	if len(want.quars) != 1 || want.quars[0].Key != "wan/basic/bad=1s/size=512" {
		t.Fatalf("quarantined %+v, want the storm point alone", want.quars)
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d differs from workers 1:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}
