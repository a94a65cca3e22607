package experiment

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/cell"
	"wtcp/internal/core"
	"wtcp/internal/recordlog"
	"wtcp/internal/repro"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// ckOpts is a small sweep (2 bads x 2 sizes = 4 points) for engine tests.
// The conformance oracle rides along, as in quickOpts.
func ckOpts() Options {
	return Options{
		Replications: 2,
		Transfer:     20 * units.KB,
		PacketSizes:  []units.ByteSize{512, 1536},
		BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
		Oracle:       true,
	}
}

// TestCheckpointResumeByteIdentical is the tentpole guarantee: a sweep
// killed after N points and resumed from its checkpoint emits output
// byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	baseline, err := Fig7(context.Background(), ckOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := ThroughputTable.CSV(baseline)

	// First run: cancel after two finished points, like a Ctrl-C mid-sweep.
	path := filepath.Join(t.TempDir(), "sweep.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := ckOpts()
	opt.Checkpoint = path
	finished := 0
	opt.OnPoint = func(string) {
		if finished++; finished == 2 {
			cancel()
		}
	}
	if _, err := Fig7(ctx, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if finished != 2 {
		t.Fatalf("finished %d points before cancel, want 2", finished)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Second run: must reload the two finished points (OnPoint fires only
	// for fresh ones) and match the uninterrupted output byte for byte.
	opt = ckOpts()
	opt.Checkpoint = path
	fresh := 0
	opt.OnPoint = func(string) { fresh++ }
	resumed, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 2 {
		t.Errorf("resumed run computed %d fresh points, want 2 (2 reloaded)", fresh)
	}
	if got := ThroughputTable.CSV(resumed); got != want {
		t.Errorf("resumed output differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// Killed mid-append: the finished sweep's checkpoint, cut inside its
	// last point record. The resume re-runs exactly that point.
	t.Run("torn append", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := recordEnds(t, data)
		if err := os.WriteFile(path, data[:ends[len(ends)-2]+recordlog.HeaderSize+3], 0o644); err != nil {
			t.Fatal(err)
		}
		stderr = io.Discard
		t.Cleanup(func() { stderr = os.Stderr })
		opt := ckOpts()
		opt.Checkpoint = path
		var rerun []string
		opt.OnPoint = func(key string) { rerun = append(rerun, key) }
		resumed, err := Fig7(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rerun) != 1 {
			t.Errorf("resume after a torn append re-ran %v, want exactly the torn point", rerun)
		}
		if got := ThroughputTable.CSV(resumed); got != want {
			t.Errorf("resumed output differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Error("the re-run point was not recorded with the bits it had before the tear")
		}
	})
}

// TestCheckpointRejectsChangedOptions: resuming under different
// result-affecting options must be refused, not silently merged.
func TestCheckpointRejectsChangedOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	opt := ckOpts()
	opt.Checkpoint = path
	if _, err := Fig7(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	opt.Transfer = 30 * units.KB
	if _, err := Fig7(context.Background(), opt); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("changed options accepted against old checkpoint (err=%v)", err)
	}
	// Execution-only options may change freely.
	opt = ckOpts()
	opt.Checkpoint = path
	opt.Workers = 3
	fresh := 0
	opt.OnPoint = func(string) { fresh++ }
	if _, err := Fig7(context.Background(), opt); err != nil {
		t.Errorf("worker-count change rejected: %v", err)
	}
	if fresh != 0 {
		t.Errorf("full checkpoint reload recomputed %d points", fresh)
	}
}

// TestParallelMatchesSequential: the worker pool must be bit-identical
// to the sequential runner. Run under -race this also exercises the
// pool for data races.
func TestParallelMatchesSequential(t *testing.T) {
	seq := ckOpts()
	seq.Replications = 4
	sp, err := Fig7(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	par := seq
	par.Workers = 4
	pp, err := Fig7(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ThroughputTable.CSV(sp), ThroughputTable.CSV(pp); a != b {
		t.Errorf("parallel output diverged from sequential:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
}

// stubRunSim swaps the engine's simulation runner for fn and restores it
// when the test ends.
func stubRunSim(t *testing.T, fn func(ctx context.Context, cfg core.Config) (*core.Result, error)) {
	t.Helper()
	orig := runSim
	runSim = fn
	t.Cleanup(func() { runSim = orig })
}

// TestBundleEmittedOnPermanentFailure: a failed replication must leave
// a replayable bundle in ReproDir.
func TestBundleEmittedOnPermanentFailure(t *testing.T) {
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		return nil, errors.New("synthetic permanent failure")
	})
	dir := t.TempDir()
	opt := Options{
		Replications: 1,
		ReproDir:     dir,
		PacketSizes:  []units.ByteSize{512},
		BadPeriods:   []time.Duration{time.Second},
	}
	if points, err := Fig7(context.Background(), opt); err != nil || len(points) != 1 || points[0].ThroughputKbps != nil {
		t.Fatalf("all-failing sweep: err %v, points %+v; want its one point quarantined", err, points)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no repro bundle written")
	}
	b, err := repro.Load(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatalf("bundle unreadable: %v", err)
	}
	if b.Kind != repro.KindError {
		t.Errorf("bundle kind = %s, want %s", b.Kind, repro.KindError)
	}
	if !strings.Contains(b.Origin, "wan/basic") || !strings.Contains(b.Origin, "rep 1") {
		t.Errorf("bundle origin %q does not identify the point", b.Origin)
	}
	if b.Config.Seed == 0 {
		t.Error("bundle config missing the failing seed")
	}
}

// enginesUnderTest is one replication function per simulator the loop
// drives — core through the adapter (a figure point, and a handoff point
// with its chaos plan), the cell engine through the CSDP study — at test
// size, all under BaseSeed 100. The handoff point keeps the ledger key it
// had before it ran on core, so an existing checkpoint resumes without a
// re-run.
func enginesUnderTest(t *testing.T) map[string]replication {
	t.Helper()
	opt := Options{BaseSeed: 100, Transfer: 20 * units.KB}
	corePoint, err := PointSpec{Sweep: SweepFig7, Scheme: "basic", Bad: time.Second, Size: 512}.point(opt)
	if err != nil {
		t.Fatal(err)
	}
	handoff := handoffPoint(opt, HandoffOptions{}.withDefaults(), handoffSchemes[0], time.Second)
	if want := "handoff/plain/dwell=1s/latency=100ms"; handoff.key != want {
		t.Fatalf("handoff point key %q, want %q", handoff.key, want)
	}
	return map[string]replication{
		"core":    corePoint.run,
		"csdp":    csdpReplication(opt, CSDPOptions{Connections: 2}.withDefaults(), cell.RoundRobin, time.Second),
		"handoff": handoff.run,
	}
}

// TestFailurePolicyIsEngineBlind runs the loop's failure policy over
// every simulator it drives: each failure shape a replication can meet,
// injected into one replication (the case's failing seed, on every
// attempt unless once is set), while the others really run. Every
// attempt runs its replication's own seed; only a host ceiling (wall
// clock, heap) earns a second attempt; and a point is measured whole or
// not at all — quarantined, or failing the sweep for a bug.
func TestFailurePolicyIsEngineBlind(t *testing.T) {
	budget := func(kind string) error { return &sim.BudgetError{Kind: kind, Limit: 3000, Value: 3001} }
	cases := []struct {
		name     string
		reps     int   // replications of the point (default 2)
		failing  int64 // the loop seed of the replication that fails (default 1)
		once     bool  // the failure clears on the replication's second attempt
		err      error // returned by the failing attempt; nil: see abort and panic
		abort    string
		panic    bool
		attempts int               // the failing replication's attempts
		wantQuar core.FailureClass // "" and no wantErr: measured
		ceiling  string
		wantErr  string
	}{
		{name: "a transient failure quarantines the point", err: errors.New("synthetic failure"),
			attempts: 1, wantQuar: core.ClassTransient},
		{name: "a watchdog abort quarantines the point", abort: "no progress for 2m0s\nsnapshot",
			attempts: 1, wantQuar: core.ClassTransient},
		{name: "an incomplete transfer quarantines the point", err: errIncomplete,
			attempts: 1, wantQuar: core.ClassTransient},
		{name: "an events ceiling quarantines at once", err: budget(sim.BudgetEvents),
			attempts: 1, wantQuar: core.ClassResourceExhausted, ceiling: sim.BudgetEvents},
		{name: "a virtual-time ceiling quarantines at once", err: budget(sim.BudgetVirtual),
			attempts: 1, wantQuar: core.ClassResourceExhausted, ceiling: sim.BudgetVirtual},
		{name: "a wall-clock ceiling hit twice quarantines", err: budget(sim.BudgetWall),
			attempts: 2, wantQuar: core.ClassResourceExhausted, ceiling: sim.BudgetWall},
		{name: "a heap ceiling hit twice quarantines", err: budget(sim.BudgetHeap),
			attempts: 2, wantQuar: core.ClassResourceExhausted, ceiling: sim.BudgetHeap},
		{name: "a wall-clock ceiling its re-run clears is measured", err: budget(sim.BudgetWall), once: true,
			attempts: 2},
		{name: "a protocol bug fails fast even under supervision",
			err:      &sim.CheckError{Name: "conservation", Err: errors.New("synthetic violation")},
			attempts: 1, wantErr: "protocol-bug"},
		{name: "a panic fails fast", panic: true, attempts: 1, wantErr: "panic"},
		{name: "every replication failing quarantines a supervised point", failing: -1, err: errors.New("synthetic failure"),
			attempts: 1, wantQuar: core.ClassTransient},
		{name: "one failed replication of five quarantines, never averages four", reps: 5, failing: 3, err: errors.New("synthetic failure"),
			attempts: 1, wantQuar: core.ClassTransient},
	}
	for engine, run := range enginesUnderTest(t) {
		for _, tc := range cases {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				reps, failing := cmp.Or(tc.reps, 2), cmp.Or(tc.failing, 1)
				var mu sync.Mutex
				tries := map[int64]int{} // attempts by loop seed
				faulty := func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error) {
					mu.Lock()
					tries[seed]++
					n := tries[seed]
					mu.Unlock()
					if (seed != failing && failing != -1) || (tc.once && n > 1) {
						return run(ctx, seed, budget)
					}
					if tc.panic {
						panic("synthetic panic")
					}
					return repRun{seed: 100 + seed, abort: tc.abort}, tc.err
				}
				outs, err := (*Ledger)(nil).settle(context.Background(), Options{Replications: reps}, []point{{"policy/" + engine, faulty}}, nil)

				want := map[int64]int{}
				for k := int64(1); k <= int64(reps); k++ {
					want[k] = 1
					if k == failing || failing == -1 {
						want[k] = tc.attempts
					}
				}
				if !maps.Equal(tries, want) {
					t.Errorf("attempts by loop seed %v, want %v: each replication its own seed, a second attempt only after a host ceiling", tries, want)
				}
				switch {
				case tc.wantErr != "":
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("err = %v, want a %s failure", err, tc.wantErr)
					}
				case err != nil:
					t.Fatalf("settle: %v", err)
				case tc.wantQuar != "":
					q := outs[0].Quarantine
					if q == nil || len(outs[0].Reps) != 0 || q.Class != string(tc.wantQuar) || q.Attempts != tc.attempts || q.Ceiling != tc.ceiling {
						t.Errorf("outcome %+v, quarantine %+v; want class %s after %d attempt(s), ceiling %q, and no replications",
							outs[0], q, tc.wantQuar, tc.attempts, tc.ceiling)
					}
				default:
					if got := seedsOf(outs[0].Reps); outs[0].Quarantine != nil || !slices.Equal(got, []int64{101, 102}) {
						t.Errorf("measured seeds %v, quarantine %+v; want seeds [101 102]", got, outs[0].Quarantine)
					}
				}
			})
		}
	}
}

// sideStudies is every side study at a test-sized grid, rendered to CSV,
// for the properties each must inherit from the engine alike.
var sideStudies = []struct {
	name   string
	points int
	csv    func(ctx context.Context, opt Options) (string, error)
}{
	{"severity", 2, func(ctx context.Context, opt Options) (string, error) {
		opt.Transfer = 20 * units.KB
		pts, err := SeverityStudy(ctx, opt, SeverityOptions{Severities: []struct {
			MeanBad time.Duration
			BadBER  float64
		}{{2 * time.Second, 1e-2}}})
		return SeverityTable.CSV(pts), err
	}},
	{"zoo", 4, func(ctx context.Context, opt Options) (string, error) {
		opt.Transfer = 20 * units.KB
		pts, err := zooStudy(ctx, opt, ZooOptions{},
			[]tcp.Variant{tcp.Tahoe, tcp.SACKVariant}, []bs.Scheme{bs.Basic, bs.EBSN})
		return ZooTable.CSV(pts), err
	}},
	{"congestion", 2, func(ctx context.Context, opt Options) (string, error) {
		opt.Transfer = 20 * units.KB
		pts, err := congestionStudy(ctx, opt, []float64{0.3})
		return CongestionTable.CSV(pts), err
	}},
	{"csdp", 3, func(ctx context.Context, opt Options) (string, error) {
		opt.Transfer = 64 * units.KB
		pts, err := CSDPStudy(ctx, opt, CSDPOptions{Connections: 2, BadPeriods: []time.Duration{time.Second}})
		return CSDPTable.CSV(pts), err
	}},
	{"handoff", 2, func(ctx context.Context, opt Options) (string, error) {
		opt.Transfer = 128 * units.KB
		pts, err := HandoffStudy(ctx, opt, HandoffOptions{Dwells: []time.Duration{time.Second}})
		return HandoffTable.CSV(pts), err
	}},
}

// TestSideStudiesRunOnTheEngine: what the figure sweeps get from the
// scheduler and the ledger, the side studies get too — a width that
// changes no byte, a context that stops the grid, a run budget
// that quarantines every point by name, and a
// checkpoint that resumes without recomputing.
func TestSideStudiesRunOnTheEngine(t *testing.T) {
	for _, st := range sideStudies {
		t.Run(st.name, func(t *testing.T) {
			want, err := st.csv(context.Background(), Options{Replications: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(want, "\n") - 1; st.name != "severity" && got != st.points {
				t.Fatalf("%d CSV rows, want %d", got, st.points)
			}

			if got, err := st.csv(context.Background(), Options{Replications: 3, Workers: 4}); err != nil || got != want {
				t.Errorf("-workers 4 diverged from sequential (err %v):\n--- seq ---\n%s--- par ---\n%s", err, want, got)
			}

			// Killed after the first fresh point, then resumed from the
			// checkpoint: the rest of the grid is not run by the first
			// pass, and only the rest by the second.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fresh := 0
			opt := Options{Replications: 3, Checkpoint: filepath.Join(t.TempDir(), "study.json"),
				OnPoint: func(string) { fresh++; cancel() }}
			if _, err := st.csv(ctx, opt); !errors.Is(err, context.Canceled) || fresh != 1 {
				t.Fatalf("cancelled study: err = %v after %d fresh point(s), want context.Canceled after 1", err, fresh)
			}
			opt.OnPoint = func(string) { fresh++ }
			if got, err := st.csv(context.Background(), opt); err != nil || got != want || fresh != st.points {
				t.Errorf("resumed study: err = %v, %d fresh points in all (want %d), output:\n%s--- want ---\n%s",
					err, fresh, st.points, got, want)
			}

			tight := Options{Replications: 1, RunBudget: sim.Budget{MaxEvents: 50}, Health: NewHealth()}
			got, err := st.csv(context.Background(), tight)
			if err != nil || strings.Count(got, "\n") != 1 {
				t.Errorf("study under a 50-event budget: err = %v, want a header-only table, got:\n%s", err, got)
			}
			qs := quarantined(tight.Health)
			if len(qs) != st.points {
				t.Fatalf("%d quarantines, want %d", len(qs), st.points)
			}
			for _, q := range qs {
				if q.Class != string(core.ClassResourceExhausted) || !strings.HasPrefix(q.Key, st.name+"/") ||
					!strings.Contains(q.Reason, "events budget") {
					t.Errorf("quarantine %+v, want an events-budget-exhausted %s/ point", q, st.name)
				}
			}
		})
	}
}

// TestCheckpointForNamesOneFilePerFingerprint pins the rule callers that
// share one -checkpoint path among differently-fingerprinted studies
// rely on.
func TestCheckpointForNamesOneFilePerFingerprint(t *testing.T) {
	primary := ckOpts()
	same := primary
	same.Workers, same.Checkpoint = 4, "elsewhere.json" // execution-only: same fingerprint
	other := primary
	other.Transfer = 30 * units.KB
	if got := CheckpointFor("dir/ck.json", primary, same); got != "dir/ck.json" {
		t.Errorf("same fingerprint moved to %q", got)
	}
	a, b := CheckpointFor("dir/ck.json", primary, other), CheckpointFor("dir/ck.json", primary, other)
	if a != b || a == "dir/ck.json" || !strings.HasPrefix(a, "dir/ck-") || !strings.HasSuffix(a, ".json") {
		t.Errorf("derived path = %q then %q, want one stable dir/ck-<hash>.json", a, b)
	}
	if got := CheckpointFor("", primary, other); got != "" {
		t.Errorf("no checkpoint became %q", got)
	}
}

// seedsOf collects the per-replication seeds of a point's records.
func seedsOf(reps []RepRecord) []int64 {
	out := make([]int64, len(reps))
	for i, r := range reps {
		out[i] = r.Seed
	}
	return out
}
