package main

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/repro"
	"wtcp/internal/units"
)

// writeWedgedBundle captures a watchdog failure (forward wired hop dead
// for the whole horizon) and saves its bundle, returning the path.
func writeWedgedBundle(t *testing.T) string {
	t.Helper()
	cfg := core.WAN(bs.Basic, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Stall = 2 * time.Minute
	cfg.Horizon = 30 * time.Minute
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{
			{Link: chaos.WiredFwd, At: 0, Length: 4 * time.Hour},
			{Link: chaos.WirelessUp, At: 5 * time.Second, Length: time.Second}, // removable decoy
		},
	}
	res, err := core.Run(cfg)
	b := repro.Capture(cfg, res, err)
	if b == nil {
		t.Fatal("wedged scenario did not fail")
	}
	b.Origin = "test/wedged rep 1"
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// healedBundle is the wedged bundle with the wedging blackout dropped:
// the recorded failure no longer reproduces.
func healedBundle(t *testing.T) string {
	t.Helper()
	path := writeWedgedBundle(t)
	b, err := repro.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Config.Chaos = nil
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayReproduces(t *testing.T) {
	path := writeWedgedBundle(t)
	out, _, err := wtcp("repro", "-bundle", path)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "reproduced: [watchdog]") {
		t.Errorf("output missing reproduction verdict:\n%s", out)
	}
}

func TestShrinkWritesMinimizedBundle(t *testing.T) {
	path := writeWedgedBundle(t)
	minPath := filepath.Join(t.TempDir(), "min.json")
	out, _, err := wtcp("repro", "-bundle", path, "-shrink", "-replays", "40", "-out", minPath)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	min, err := repro.Load(minPath)
	if err != nil {
		t.Fatalf("minimized bundle unreadable: %v", err)
	}
	orig, err := repro.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Config.Chaos.Blackouts) >= len(orig.Config.Chaos.Blackouts) {
		t.Errorf("shrink removed no faults: %d vs %d blackouts",
			len(min.Config.Chaos.Blackouts), len(orig.Config.Chaos.Blackouts))
	}
	if min.Config.TransferSize >= orig.Config.TransferSize {
		t.Errorf("shrink did not reduce the transfer: %v vs %v",
			min.Config.TransferSize, orig.Config.TransferSize)
	}
	// The minimized scenario must still reproduce on its own.
	o, err := repro.Replay(context.Background(), min)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Matches(orig) {
		t.Errorf("minimized bundle no longer reproduces: %+v", o)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeWedgedBundle(t)
	out, _, err := wtcp("repro", "-bundle", path, "-json")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{`"reproduced": true`, `"want_kind": "watchdog"`, `"got_kind": "watchdog"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
}

func TestMissingBundleFlag(t *testing.T) {
	if _, _, err := wtcp("repro"); err == nil {
		t.Error("missing -bundle accepted")
	}
}

func TestNotReproducedExitsTwo(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"repro", "-bundle", healedBundle(t)}, &out, io.Discard); code != 2 {
		t.Errorf("exit code = %d, want 2 (not reproduced)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "NOT reproduced") {
		t.Errorf("output missing NOT-reproduced verdict:\n%s", out.String())
	}
}
