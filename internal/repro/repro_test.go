package repro

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// wedgedConfig leaves the transfer no way to finish: the forward wired
// hop is dead for the whole horizon, so the watchdog must abort. Extra
// decoy faults give Shrink something to remove.
func wedgedConfig() core.Config {
	cfg := core.WAN(bs.Basic, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Stall = 2 * time.Minute
	cfg.Horizon = 30 * time.Minute
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{
			{Link: chaos.WiredFwd, At: 0, Length: 4 * time.Hour},
			{Link: chaos.WirelessUp, At: 5 * time.Second, Length: time.Second}, // decoy
		},
		Crashes: []chaos.Crash{{At: 40 * time.Second, Downtime: 2 * time.Second}},         // decoy
		Handoff: &chaos.Handoff{Dwell: 10 * time.Second, Gap: time.Second, DupAcks: true}, // decoy
		Notify:  chaos.NotifyFaults{LossProb: 0.25},                                       // decoy
	}
	return cfg
}

// handoffWedgedConfig is wedged by its handoff instead: the mobile host
// leaves its cell after a second and the gap outlasts the horizon. The
// other faults are wedgedConfig's decoys.
func handoffWedgedConfig() core.Config {
	cfg := wedgedConfig()
	cfg.Chaos.Blackouts = cfg.Chaos.Blackouts[1:]
	cfg.Chaos.Handoff = &chaos.Handoff{Dwell: time.Second, Gap: 4 * time.Hour}
	return cfg
}

// captureWedged runs the wedged scenario and captures its bundle.
func captureWedged(t *testing.T) *Bundle {
	t.Helper()
	return captureWatchdog(t, wedgedConfig())
}

// captureWatchdog runs a scenario the watchdog must abort and captures
// its bundle.
func captureWatchdog(t testing.TB, cfg core.Config) *Bundle {
	t.Helper()
	res, err := core.Run(cfg)
	b := Capture(cfg, res, err)
	if b == nil {
		t.Fatalf("wedged run did not fail (err=%v, res=%+v)", err, res)
	}
	if b.Kind != KindWatchdog {
		t.Fatalf("bundle kind = %s, want %s", b.Kind, KindWatchdog)
	}
	return b
}

func TestCaptureClassifies(t *testing.T) {
	cfg := core.WAN(bs.Basic, 576, time.Second)
	if b := Capture(cfg, &core.Result{Completed: true}, nil); b != nil {
		t.Errorf("clean run captured as %+v", b)
	}
	if b := Capture(cfg, nil, context.Canceled); b != nil {
		t.Errorf("cancellation captured as %+v", b)
	}
	if b := Capture(cfg, nil, errors.New("boom")); b == nil || b.Kind != KindError {
		t.Errorf("plain error captured as %+v", b)
	}
	pe := &core.PanicError{Value: "index out of range", Stack: "stack..."}
	if b := Capture(cfg, nil, pe); b == nil || b.Kind != KindPanic || b.Failure != "index out of range" {
		t.Errorf("panic captured as %+v", b)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := captureWedged(t)
	b.Origin = "test/wedged rep 1"
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != b.Kind || got.Origin != b.Origin || got.Failure != b.Failure {
		t.Errorf("round trip changed header: %+v vs %+v", got, b)
	}
	if got.Config.Seed != b.Config.Seed || got.Config.TransferSize != b.Config.TransferSize {
		t.Errorf("round trip changed config: %+v vs %+v", got.Config, b.Config)
	}
	if len(got.Config.Chaos.Blackouts) != 2 || got.Config.Chaos.Handoff == nil ||
		*got.Config.Chaos.Handoff != *b.Config.Chaos.Handoff {
		t.Errorf("chaos plan lost in round trip: %+v", got.Config.Chaos)
	}
}

func TestReplayReproducesDeterministically(t *testing.T) {
	b := captureWedged(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two replays of the loaded bundle must both reproduce the original
	// failure with identical summaries — determinism from the file alone.
	o1, err := Replay(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Replay(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !o1.Matches(b) {
		t.Errorf("replay outcome %+v does not match bundle %s/%s", o1, b.Kind, b.Failure)
	}
	if o1 != o2 {
		t.Errorf("two replays diverged: %+v vs %+v", o1, o2)
	}
}

func TestReplayHonorsContext(t *testing.T) {
	b := captureWedged(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay = %v, want context.Canceled", err)
	}
}

// TestShrinkRemovesDecoysAndKeepsFailure shrinks two wedged scenarios
// with the same decoys: one wedged by a blackout, where the handoff is a
// decoy too, and one wedged by its handoff, which must survive every edit
// that drops another fault.
func TestShrinkRemovesDecoysAndKeepsFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		kept func(*chaos.Config) bool // the wedging fault, and only it among blackout and handoff
	}{
		{"blackout", wedgedConfig(), func(c *chaos.Config) bool {
			return len(c.Blackouts) == 1 && c.Blackouts[0].Link == chaos.WiredFwd && c.Handoff == nil
		}},
		{"handoff", handoffWedgedConfig(), func(c *chaos.Config) bool {
			return len(c.Blackouts) == 0 && c.Handoff != nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := captureWatchdog(t, tc.cfg)
			min, stats, err := Shrink(context.Background(), b, 60)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Replays == 0 || stats.Accepted == 0 {
				t.Fatalf("shrink did no work: %+v", stats)
			}
			// The shrunk scenario must still reproduce the watchdog failure...
			o, err := Replay(context.Background(), min)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Matches(b) {
				t.Fatalf("shrunk bundle no longer fails the same way: %+v", o)
			}
			// ...with the decoy faults gone (only the wedging fault can be
			// essential) and a smaller transfer.
			if min.Config.Chaos == nil || !tc.kept(min.Config.Chaos) {
				t.Errorf("wedging fault lost or decoy kept: %+v", min.Config.Chaos)
			}
			if min.Config.Chaos != nil && len(min.Config.Chaos.Crashes) != 0 {
				t.Errorf("decoy crash not removed: %+v", min.Config.Chaos.Crashes)
			}
			if min.Config.Chaos != nil && min.Config.Chaos.Notify != (chaos.NotifyFaults{}) {
				t.Errorf("decoy notify faults not removed: %+v", min.Config.Chaos.Notify)
			}
			if min.Config.TransferSize >= b.Config.TransferSize {
				t.Errorf("transfer not shrunk: %v >= %v", min.Config.TransferSize, b.Config.TransferSize)
			}
			if min.Config.Horizon >= b.Config.Horizon {
				t.Errorf("horizon not shrunk: %v >= %v", min.Config.Horizon, b.Config.Horizon)
			}
		})
	}
}

// budgetConfig is a benign WAN transfer starved of its event budget:
// the run aborts with a *sim.BudgetError well before completing, and —
// because the event ceiling counts deterministic kernel events — every
// replay aborts identically.
func budgetConfig() core.Config {
	cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 50 * units.KB
	cfg.Budget = sim.Budget{MaxEvents: 500}
	return cfg
}

func TestCaptureBudgetRoundTripAndReplay(t *testing.T) {
	cfg := budgetConfig()
	res, err := core.Run(cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("starved run returned %v (res=%+v), want *sim.BudgetError", err, res)
	}
	b := Capture(cfg, res, err)
	if b == nil {
		t.Fatal("budget abort not captured")
	}
	if b.Kind != KindBudget || b.BudgetKind != sim.BudgetEvents {
		t.Fatalf("bundle kind = %s/%s, want %s/%s", b.Kind, b.BudgetKind, KindBudget, sim.BudgetEvents)
	}
	if b.BudgetLimit != 500 || b.BudgetValue < 500 {
		t.Fatalf("bundle counters limit=%d value=%d, want limit 500 and value >= 500", b.BudgetLimit, b.BudgetValue)
	}

	b.Origin = "test/budget rep 1"
	path := filepath.Join(t.TempDir(), "budget.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != b.Kind || got.BudgetKind != b.BudgetKind ||
		got.BudgetLimit != b.BudgetLimit || got.BudgetValue != b.BudgetValue {
		t.Errorf("round trip changed budget metadata: %+v vs %+v", got, b)
	}
	if got.Config.Budget != cfg.Budget {
		t.Errorf("round trip changed Config.Budget: %+v vs %+v", got.Config.Budget, cfg.Budget)
	}

	o, err := Replay(context.Background(), got)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Matches(got) {
		t.Errorf("replay outcome %+v does not match bundle %s/%s", o, got.Kind, got.BudgetKind)
	}

	// A different exhausted ceiling is a different failure.
	if (Outcome{Kind: KindBudget, BudgetKind: sim.BudgetWall}).Matches(got) {
		t.Error("wall-clock outcome matched an event-budget bundle")
	}
}

// FuzzReproBundleLoad: a bundle file either loads or is refused with an
// error naming the file — never a panic — and a loaded bundle's own
// encoding (the bytes Save writes) loads again and re-encodes to the same
// bytes.
func FuzzReproBundleLoad(f *testing.F) {
	for _, cfg := range []core.Config{wedgedConfig(), handoffWedgedConfig()} {
		data, err := captureWatchdog(f, cfg).encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 2`), 1))
		f.Add(bytes.Replace(data, []byte(`"kind": "watchdog"`), []byte(`"kind": "none"`), 1))
	}
	f.Add([]byte(`{"version":1,"kind":"budget","budget_kind":"events","budget_limit":1,"budget_value":2,"config":null}`))
	f.Add([]byte(`{"version":1,"kind":"panic","config":{"Chaos":{}},"Version":1}`))
	f.Add([]byte(`null`))
	const path = "fuzz-bundle.json"
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decode(path, data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "repro: ") || !strings.Contains(err.Error(), path) {
				t.Errorf("refusal %q does not name the file", err)
			}
			return
		}
		first, err := b.encode()
		if err != nil {
			t.Fatalf("a loaded bundle does not encode: %v", err)
		}
		again, err := decode(path, first)
		if err != nil {
			t.Fatalf("the encoding of a loaded bundle is refused: %v\n%s", err, first)
		}
		second, err := again.encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("encoding is not a fixed point:\n%s\n---\n%s", first, second)
		}
	})
}
