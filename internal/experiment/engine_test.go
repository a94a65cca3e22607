package experiment

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
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

// TestRetryPerturbsAndRecordsSeed: a failed replication must be retried
// with a perturbed seed, and the substituted seed must appear in the
// point's records instead of the original.
func TestRetryPerturbsAndRecordsSeed(t *testing.T) {
	const baseSeed = 100
	failing := int64(baseSeed + 1) // replication 1's first-attempt seed
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.Seed == failing {
			return nil, errors.New("synthetic deterministic failure")
		}
		r := &core.Result{Completed: true}
		r.Summary.ThroughputKbps = float64(cfg.Seed) // distinguishable payload
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
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	wantSeeds := []int64{failing + retrySeedOffset, baseSeed + 2}
	out, err := RunPointSpec(context.Background(), opt, PointSpec{Sweep: SweepFig7, Scheme: "basic", Bad: time.Second, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	if got := seedsOf(out.Reps); !slices.Equal(got, wantSeeds) {
		t.Errorf("seeds = %v, want %v (retried rep shows its substituted seed)", got, wantSeeds)
	}
	// The sample really came from the perturbed run, not the failed one.
	if m := points[0].ThroughputKbps.Mean(); m != float64(wantSeeds[0]+wantSeeds[1])/2 {
		t.Errorf("sample mean %v does not match the substituted-seed runs", m)
	}
}

// TestBundleEmittedOnPermanentFailure: a replication that exhausts its
// retries must leave a replayable bundle in ReproDir.
func TestBundleEmittedOnPermanentFailure(t *testing.T) {
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		return nil, errors.New("synthetic permanent failure")
	})
	dir := t.TempDir()
	opt := Options{
		Replications: 1,
		Retries:      -1,
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

// TestFailurePolicyIsEngineBlind runs the loop's failure policy — retry
// under a perturbed seed, skip, quarantine, fail fast — over every
// simulator it drives: an attempt whose loop seed the case names fails
// with the case's error instead of running, the others really run.
func TestFailurePolicyIsEngineBlind(t *testing.T) {
	transient := errors.New("synthetic failure")
	bug := &sim.CheckError{Name: "conservation", Err: errors.New("synthetic violation")}
	firstAttemptOfRep1 := func(seed int64) bool { return seed == 1 }
	everyAttemptOfRep1 := func(seed int64) bool { return seed%retrySeedOffset == 1 }
	always := func(int64) bool { return true }
	cases := []struct {
		name      string
		fails     func(seed int64) bool
		err       error
		wantSeeds []int64 // the settled replications, by the seed they ran with
		wantQuar  core.FailureClass
		wantErr   string
		wantRuns  int64 // attempts made, failed ones included
	}{
		{name: "a transient failure is retried under a perturbed seed", fails: firstAttemptOfRep1, err: transient,
			wantSeeds: []int64{101 + retrySeedOffset, 102}, wantRuns: 3},
		{name: "a replication that keeps failing is skipped and n shrinks", fails: everyAttemptOfRep1, err: transient,
			wantSeeds: []int64{102}, wantRuns: 3},
		{name: "every replication failing quarantines a supervised point", fails: always, err: transient,
			wantQuar: core.ClassTransient, wantRuns: 4},
		{name: "a protocol bug fails fast even under supervision", fails: firstAttemptOfRep1, err: bug,
			wantErr: "protocol-bug", wantRuns: 2},
	}
	for engine, run := range enginesUnderTest(t) {
		for _, tc := range cases {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				var runs atomic.Int64
				faulty := func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error) {
					runs.Add(1)
					if tc.fails(seed) {
						return repRun{seed: 100 + seed}, tc.err
					}
					return run(ctx, seed, budget)
				}
				opt := Options{Replications: 2}
				var reps []RepRecord
				var quar *Quarantine
				outs, err := (*Ledger)(nil).settle(context.Background(), opt, []point{{"policy/" + engine, faulty}}, nil)
				if err == nil {
					reps, quar = outs[0].Reps, outs[0].Quarantine
				}
				if got := runs.Load(); got != tc.wantRuns {
					t.Errorf("%d attempts, want %d", got, tc.wantRuns)
				}
				switch {
				case tc.wantErr != "":
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.Is(err, tc.err) {
						t.Errorf("err = %v, want %q wrapping the injected error", err, tc.wantErr)
					}
				case tc.wantQuar != "":
					if err != nil || quar == nil || quar.Class != string(tc.wantQuar) || quar.Attempts != 2 {
						t.Errorf("quarantine = %+v, err = %v; want class %s after 2 attempts", quar, err, tc.wantQuar)
					}
				default:
					if err != nil || quar != nil || !slices.Equal(seedsOf(reps), tc.wantSeeds) {
						t.Errorf("seeds = %v, quarantine = %+v, err = %v; want seeds %v", seedsOf(reps), quar, err, tc.wantSeeds)
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
