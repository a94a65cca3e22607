package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/repro"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// stormRunSim wraps the real runner so that configs matching
// (badPeriod, size) livelock: an unbounded zero-spacing event storm is
// injected at time zero, freezing the virtual clock while the kernel
// burns events — exactly the shape the event budget exists to catch.
// It returns a counter of pathological configs actually run.
func stormRunSim(t *testing.T, bad time.Duration, size units.ByteSize) *atomic.Int64 {
	t.Helper()
	var pathological atomic.Int64
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.Channel.MeanBad == bad && cfg.PacketSize == size {
			pathological.Add(1)
			cfg.Chaos = &chaos.Config{EventStorms: []chaos.EventStorm{{At: 0}}}
		}
		return core.RunContext(ctx, cfg)
	})
	return &pathological
}

// governedOpts is ckOpts plus a Health that collects the quarantines
// and an aggressive event budget, so the injected livelock trips in
// milliseconds instead of at the 2^31-event default.
func governedOpts(h *Health) Options {
	opt := ckOpts()
	opt.Health = h
	opt.RunBudget = sim.Budget{MaxEvents: 200_000}
	return opt
}

// quarantined is the quarantine records h has kept.
func quarantined(h *Health) []Quarantine {
	qs, _ := h.Quarantined()
	return qs
}

// keyOnly copies a throughput sweep with the (bad, size) point's
// measurements dropped, as a quarantine leaves it.
func keyOnly(points []ThroughputPoint, bad time.Duration, size units.ByteSize) []ThroughputPoint {
	out := slices.Clone(points)
	for i, p := range out {
		if p.BadPeriod == bad && p.PacketSize == size {
			out[i].ThroughputKbps, out[i].Goodput = nil, nil
		}
	}
	return out
}

// measured filters a throughput sweep down to the points a quarantine
// did not leave key-only.
func measured(points []ThroughputPoint) []ThroughputPoint {
	var out []ThroughputPoint
	for _, p := range points {
		if p.ThroughputKbps != nil {
			out = append(out, p)
		}
	}
	return out
}

// TestGovernedSweepQuarantinesPathologicalPoint is the acceptance
// scenario: a sweep with one pathological point (event-storm livelock)
// completes with that point quarantined and listed, every other point
// bit-identical to an unbudgeted run, and a repro bundle emitted for the
// budget abort. Before run budgets, that livelock hung a worker forever
// (the virtual-time watchdog never fires when the clock is frozen).
func TestGovernedSweepQuarantinesPathologicalPoint(t *testing.T) {
	const badPeriod = time.Second
	const size = units.ByteSize(512)

	baseline, err := Fig7(context.Background(), ckOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := ThroughputTable.CSV(keyOnly(baseline, badPeriod, size))

	stormRunSim(t, badPeriod, size)
	health := NewHealth()
	dir := t.TempDir()
	opt := governedOpts(health)
	opt.ReproDir = dir
	got, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatalf("budgeted sweep failed instead of quarantining: %v", err)
	}

	qs := quarantined(health)
	if len(qs) != 1 {
		t.Fatalf("quarantined %d points, want 1: %+v", len(qs), qs)
	}
	q := qs[0]
	if q.Key != "wan/basic/bad=1s/size=512" {
		t.Errorf("quarantined key = %q", q.Key)
	}
	if q.Class != string(core.ClassResourceExhausted) {
		t.Errorf("quarantine class = %s, want %s", q.Class, core.ClassResourceExhausted)
	}
	if q.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (an events ceiling recurs under the same seed)", q.Attempts)
	}
	if !strings.Contains(q.Reason, "events budget") {
		t.Errorf("reason %q does not name the exhausted budget", q.Reason)
	}

	if len(got) != len(baseline) || len(measured(got)) != len(baseline)-1 {
		t.Fatalf("governed sweep kept %d points, %d measured, want %d, %d measured", len(got), len(measured(got)), len(baseline), len(baseline)-1)
	}
	if csv := ThroughputTable.CSV(got); csv != want {
		t.Errorf("surviving points differ from the unbudgeted run:\n--- want ---\n%s--- got ---\n%s", want, csv)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no repro bundle emitted for the quarantined point")
	}
	b, err := repro.Load(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != repro.KindBudget || b.BudgetKind != sim.BudgetEvents {
		t.Errorf("bundle kind = %s/%s, want %s/%s", b.Kind, b.BudgetKind, repro.KindBudget, sim.BudgetEvents)
	}
}

// TestDefaultRunBudgetApplied: every engine run must carry the default
// livelock guard (event ceiling + wall-clock deadline) unless the
// caller explicitly opts out or overrides a field.
func TestDefaultRunBudgetApplied(t *testing.T) {
	var got sim.Budget
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		got = cfg.Budget
		r := &core.Result{Completed: true}
		r.Summary.Goodput = 1
		return r, nil
	})
	opt := Options{Replications: 1, PacketSizes: []units.ByteSize{512}, BadPeriods: []time.Duration{time.Second}}
	if _, err := Fig7(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	want := sim.Budget{MaxEvents: DefaultRunMaxEvents, WallClock: DefaultRunWall}
	if got != want {
		t.Errorf("default run budget = %+v, want %+v", got, want)
	}

	opt.RunBudget = sim.Budget{MaxEvents: 5000, WallClock: -1}
	if _, err := Fig7(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if got.MaxEvents != 5000 || got.WallClock != -1 {
		t.Errorf("RunBudget override not honoured: %+v", got)
	}

	// wtcp's -no-run-budget: unlimited, not unset, so the defaults stay
	// out.
	opt.RunBudget = sim.Budget{MaxEvents: -1, WallClock: -1}
	if _, err := Fig7(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if got != opt.RunBudget {
		t.Errorf("an unlimited RunBudget still imposed %+v", got)
	}
}

// TestAllTransientFailuresQuarantineUnderSupervision: when every
// replication of a point fails with a retryable class, the point is
// quarantined (class recorded) instead of failing the sweep.
func TestAllTransientFailuresQuarantineUnderSupervision(t *testing.T) {
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		return nil, errors.New("synthetic permanent failure")
	})
	health := NewHealth()
	opt := Options{
		Replications: 2,
		Health:       health,
		PacketSizes:  []units.ByteSize{512},
		BadPeriods:   []time.Duration{time.Second},
	}
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatalf("all-failing sweep errored: %v", err)
	}
	if len(points) != 1 || len(measured(points)) != 0 {
		t.Errorf("all-failing sweep produced %d points, %d measured; want its one point key-only", len(points), len(measured(points)))
	}
	qs := quarantined(health)
	if len(qs) != 1 || qs[0].Class != string(core.ClassTransient) {
		t.Fatalf("quarantine records = %+v, want one transient record", qs)
	}
}

// TestProtocolBugFailsFastUnderSupervision: a protocol bug (invariant
// violation) must fail the sweep, breaker or no breaker — a wrong
// implementation must never be "quarantined" into a passing run — and
// must not be retried.
func TestProtocolBugFailsFastUnderSupervision(t *testing.T) {
	var runs atomic.Int64
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		return nil, &sim.CheckError{Name: "conservation", Err: errors.New("synthetic violation")}
	})
	health := NewHealth()
	opt := Options{
		Replications: 1,
		Health:       health,
		PacketSizes:  []units.ByteSize{512},
		BadPeriods:   []time.Duration{time.Second},
	}
	_, err := Fig7(context.Background(), opt)
	var ce *sim.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("protocol bug surfaced as %v, want *sim.CheckError", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("protocol bug was retried (%d runs), fail-fast means exactly 1", n)
	}
	if len(quarantined(health)) != 0 {
		t.Errorf("protocol bug was quarantined: %+v", quarantined(health))
	}
}

// resumeGoverned runs the governed sweep with a checkpoint, cancelling
// after cancelAfter fresh points, then resumes it to completion with a
// fresh Health. It returns the final points, the resumed run's
// quarantine records, and how many pathological configs the resume
// executed.
func resumeGoverned(t *testing.T, path string, cancelAfter int,
	bad time.Duration, size units.ByteSize) ([]ThroughputPoint, []Quarantine, int64) {
	t.Helper()
	patho := stormRunSim(t, bad, size)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := governedOpts(NewHealth())
	opt.Checkpoint = path
	finished := 0
	opt.OnPoint = func(string) {
		if finished++; finished == cancelAfter {
			cancel()
		}
	}
	if _, err := Fig7(ctx, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}

	patho.Store(0)
	health := NewHealth()
	opt = governedOpts(health)
	opt.Checkpoint = path
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return points, quarantined(health), patho.Load()
}

// TestResumeAcrossQuarantineByteIdentical: the sweep result — surviving
// points AND the quarantine list — must be byte-identical whether the
// quarantine happened before or after the checkpoint/resume boundary,
// and a resumed sweep must not re-run a quarantined point.
func TestResumeAcrossQuarantineByteIdentical(t *testing.T) {
	// Pathological point is the SECOND of four (bad=1s, size=1536), so a
	// cancel after 1 fresh point lands before it and a cancel after 2
	// fresh points lands after it (quarantine emits no OnPoint).
	const bad = time.Second
	const size = units.ByteSize(1536)

	stormRunSim(t, bad, size)
	health := NewHealth()
	uninterrupted, err := Fig7(context.Background(), governedOpts(health))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := ThroughputTable.CSV(uninterrupted)
	wantQuar := fmt.Sprintf("%+v", quarantined(health))

	for name, cancelAfter := range map[string]int{
		"quarantine-after-boundary":  1, // interrupted before the pathological point
		"quarantine-before-boundary": 2, // pathological point quarantined pre-interrupt
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.json")
			points, quars, pathoRuns := resumeGoverned(t, path, cancelAfter, bad, size)
			if got := ThroughputTable.CSV(points); got != wantCSV {
				t.Errorf("resumed output differs from uninterrupted governed run:\n--- want ---\n%s--- got ---\n%s", wantCSV, got)
			}
			if got := fmt.Sprintf("%+v", quars); got != wantQuar {
				t.Errorf("quarantine records differ:\nwant %s\ngot  %s", wantQuar, got)
			}
			if cancelAfter == 2 && pathoRuns != 0 {
				t.Errorf("resume re-ran the quarantined point %d times; the checkpoint record must be honoured", pathoRuns)
			}
		})
	}
}

// TestBudgetSmoke is the `make budget-smoke` gate: a tiny governed sweep
// with aggressive budgets and one pathological point must finish clean
// — quarantine recorded everywhere it should be (health, checkpoint,
// stderr-free), partial results present, bundle emitted.
// Run it with -race; the worker pool and health heartbeat are shared
// state.
func TestBudgetSmoke(t *testing.T) {
	stormRunSim(t, time.Second, 1536)
	health := NewHealth()
	health.SetStragglerLog(nil)
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "smoke.json")
	statusPath := filepath.Join(dir, "status.json")
	stopBeat := health.Heartbeat(statusPath, io.Discard)
	defer stopBeat()

	opt := Options{
		Replications: 2,
		Transfer:     20 * units.KB,
		PacketSizes:  []units.ByteSize{512, 1536},
		BadPeriods:   []time.Duration{time.Second},
		Workers:      2,
		RunBudget:    sim.Budget{MaxEvents: 200_000},
		Checkpoint:   ckPath,
		ReproDir:     filepath.Join(dir, "repro"),
		Health:       health,
	}
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatalf("budget smoke sweep failed: %v", err)
	}
	if len(points) != 2 || len(measured(points)) != 1 {
		t.Fatalf("partial results: got %d points, %d measured; want 2, 1 surviving", len(points), len(measured(points)))
	}
	qs := quarantined(health)
	if len(qs) != 1 || qs[0].Class != string(core.ClassResourceExhausted) {
		t.Fatalf("quarantine records = %+v, want one resource-exhausted record", qs)
	}

	// The checkpoint carries the quarantine.
	if f := readLedger(t, ckPath, opt); len(f.Quarantined) != 1 || f.Quarantined[0] != qs[0] {
		t.Errorf("checkpoint holds quarantines %+v, want %+v", f.Quarantined, qs)
	}

	// The heartbeat saw both the completions and the quarantine, and the
	// status file its stop writes is valid JSON with the documented schema.
	stopBeat()
	snap := health.Snapshot()
	if snap.Quarantined != 1 {
		t.Errorf("health quarantined = %d, want 1", snap.Quarantined)
	}
	if snap.Completed < 2 {
		t.Errorf("health completed = %d, want >= 2", snap.Completed)
	}
	if snap.EventsProcessed == 0 {
		t.Error("health counted no events")
	}
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("status file is not JSON: %v", err)
	}
	for _, key := range []string{
		"timestamp", "uptime_sec", "completed", "failed", "retried",
		"quarantined", "events_processed", "events_per_sec",
		"median_run_sec", "heap_bytes",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("status JSON missing %q", key)
		}
	}

	// Bundle emitted for the budget abort.
	entries, err := os.ReadDir(opt.ReproDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no repro bundle in %s (err=%v)", opt.ReproDir, err)
	}
}

// TestHealthStatusJSONAndSignalDump exercises the heartbeat directly:
// active runs appear in the snapshot while in flight, the status file
// the heartbeat writes at stop parses and holds the counters, and the
// hooks are safe on a nil collector. (The SIGUSR1 dump is pinned on
// unix by TestSignalDumpIsSnapshotJSON.)
func TestHealthStatusJSONAndSignalDump(t *testing.T) {
	h := NewHealth()
	h.SetStragglerLog(nil)
	path := filepath.Join(t.TempDir(), "status.json")
	stop := h.Heartbeat(path, io.Discard)

	id := h.runStarted("wan/basic/bad=1s/size=512", 101)
	snap := h.Snapshot()
	if len(snap.ActiveRuns) != 1 || snap.ActiveRuns[0].Key != "wan/basic/bad=1s/size=512" ||
		snap.ActiveRuns[0].Seed != 101 {
		t.Fatalf("active run not visible: %+v", snap.ActiveRuns)
	}
	h.runFinished(id, 12345, true)
	h.noteRetry()
	h.noteQuarantine(Quarantine{Key: "wan/basic/bad=1s/size=512"})

	snap = h.Snapshot()
	if snap.Completed != 1 || snap.Retried != 1 || snap.Quarantined != 1 ||
		snap.EventsProcessed != 12345 || len(snap.ActiveRuns) != 0 {
		t.Errorf("counters wrong: %+v", snap)
	}

	stop()
	stop() // idempotent
	var onDisk HealthSnapshot
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Completed != 1 || onDisk.Retried != 1 || onDisk.Quarantined != 1 || onDisk.EventsProcessed != 12345 {
		t.Errorf("status file counters wrong: %+v", onDisk)
	}

	// Nil receiver: every hook must be a safe no-op.
	var nh *Health
	nh.runFinished(nh.runStarted("x", 1), 1, true)
	nh.noteRetry()
	nh.noteQuarantine(Quarantine{})
	if qs, n := nh.Quarantined(); qs != nil || n != 0 {
		t.Errorf("nil collector kept quarantines: %v, %d", qs, n)
	}
	nh.Heartbeat(path, io.Discard)()
	_ = nh.Snapshot()
}

// TestStragglerLogged: a run far beyond the completed-run median must be
// recorded in the snapshot and written to the straggler log.
func TestStragglerLogged(t *testing.T) {
	h := NewHealth()
	var buf bytes.Buffer
	h.SetStragglerLog(&buf)
	h.mu.Lock()
	h.durations = []float64{0.01, 0.01, 0.01} // median 10ms over 3 samples
	h.mu.Unlock()

	id := h.runStarted("lan/ebsn/bad=400ms", 7)
	h.mu.Lock()
	ar := h.active[id]
	ar.started = ar.started.Add(-2 * time.Second) // pretend it ran ~2s, 200x median
	h.active[id] = ar
	h.mu.Unlock()
	h.runFinished(id, 10, true)

	snap := h.Snapshot()
	if len(snap.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v, want 1", snap.Stragglers)
	}
	s := snap.Stragglers[0]
	if s.Key != "lan/ebsn/bad=400ms" || s.Seed != 7 || s.Sec < stragglerFactor*s.MedianSec {
		t.Errorf("straggler record wrong: %+v", s)
	}
	if !strings.Contains(buf.String(), "straggler: lan/ebsn/bad=400ms seed 7") {
		t.Errorf("straggler log line missing: %q", buf.String())
	}

	// A run near the median must not be flagged.
	id = h.runStarted("lan/ebsn/bad=400ms", 8)
	h.runFinished(id, 10, true)
	if n := len(h.Snapshot().Stragglers); n != 1 {
		t.Errorf("normal run flagged as straggler (%d records)", n)
	}

	// Neither must one that is many times the median yet under the
	// absolute floor: among millisecond runs that is scheduler noise.
	buf.Reset()
	id = h.runStarted("lan/ebsn/bad=400ms", 9)
	h.mu.Lock()
	ar = h.active[id]
	ar.started = ar.started.Add(-stragglerFloor / 2) // 50x median, half the floor
	h.active[id] = ar
	h.mu.Unlock()
	h.runFinished(id, 10, true)
	if n := len(h.Snapshot().Stragglers); n != 1 || buf.Len() != 0 {
		t.Errorf("sub-floor run flagged as straggler (%d records, log %q)", n, buf.String())
	}

	// Completed durations stay sorted as they arrive, so the median is
	// read off the middle instead of re-sorting on every completion.
	h.mu.Lock()
	sorted := slices.IsSorted(h.durations)
	n := len(h.durations)
	h.mu.Unlock()
	if !sorted || n != 6 {
		t.Errorf("durations sorted=%v n=%d, want sorted with all 6 completed runs", sorted, n)
	}
	if med := h.MedianRunSeconds(); med != 0.01 {
		t.Errorf("median = %v, want 0.01 (three 10 ms samples below three slower runs)", med)
	}
}

// TestHealthKeepsRecentDurations: a resident server shares one Health
// for its whole life, so the duration sample the median is read from
// holds the last maxKept completed runs, not every run ever.
func TestHealthKeepsRecentDurations(t *testing.T) {
	h := NewHealth()
	h.SetStragglerLog(nil)
	var all []float64 // every duration recorded, in completion order
	for i := 0; i < 5000; i++ {
		id := h.runStarted("lan/ebsn/bad=400ms", int64(i))
		h.mu.Lock()
		ar := h.active[id]
		ar.started = ar.started.Add(-time.Duration(Splitmix64(uint64(i))%900) * time.Millisecond)
		h.active[id] = ar
		h.mu.Unlock()
		h.runFinished(id, 1, true)
		h.mu.Lock()
		all = append(all, h.recent[(h.next+len(h.recent)-1)%len(h.recent)])
		h.mu.Unlock()
	}
	last := slices.Clone(all[len(all)-maxKept:])
	slices.Sort(last)
	h.mu.Lock()
	held := slices.Clone(h.durations)
	h.mu.Unlock()
	if len(held) > 1024 || !slices.Equal(held, last) {
		t.Errorf("sample holds %d durations; want exactly the last %d, sorted", len(held), maxKept)
	}
	if got, want := h.MedianRunSeconds(), MedianOf(last); got != want {
		t.Errorf("median %v, want %v (the last %d runs)", got, want, maxKept)
	}
}
