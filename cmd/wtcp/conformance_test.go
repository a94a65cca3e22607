package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wtcp/internal/core"
	"wtcp/internal/trace"
)

// TestGoldenScenariosByteStable is the harness's own foundation: replaying
// a scenario twice must produce byte-identical encodings, or committed
// goldens would flap.
func TestGoldenScenariosByteStable(t *testing.T) {
	for _, g := range goldens {
		runOnce := func() string {
			cfg := g.build()
			cfg.CollectTrace = true
			cfg.Oracle = true
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			if !res.Completed {
				t.Fatalf("%s: did not complete", g.name)
			}
			return res.Trace.Encode()
		}
		a, b := runOnce(), runOnce()
		if a != b {
			t.Errorf("%s: two replays produced different encodings", g.name)
		}
		// The encoding must round-trip through its own decoder.
		if _, evs, err := trace.DecodeEvents(a); err != nil {
			t.Errorf("%s: encoding does not decode: %v", g.name, err)
		} else if len(evs) == 0 {
			t.Errorf("%s: empty trace", g.name)
		}
	}
}

// TestCommittedGoldensMatch runs the gate in compare mode against the
// goldens committed in testdata — the in-process version of the CI job.
func TestCommittedGoldensMatch(t *testing.T) {
	if _, _, err := wtcp("conformance", "-dir", "testdata/goldens"); err != nil {
		t.Fatalf("committed goldens drifted: %v", err)
	}
}

// TestUpdateThenCompare exercises the full cycle in a scratch directory:
// -update writes goldens, compare mode accepts them, and a second -update
// rewrites them byte-identically.
func TestUpdateThenCompare(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := wtcp("conformance", "-dir", dir, "-update"); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, _, err := wtcp("conformance", "-dir", dir); err != nil {
		t.Fatalf("compare after update: %v", err)
	}
	first := readAll(t, dir)
	if _, _, err := wtcp("conformance", "-dir", dir, "-update"); err != nil {
		t.Fatalf("second update: %v", err)
	}
	second := readAll(t, dir)
	for name, a := range first {
		if b, ok := second[name]; !ok || a != b {
			t.Errorf("%s not byte-stable across regenerations", name)
		}
	}
}

// TestCompareDetectsTampering corrupts one committed-golden copy and
// requires the gate to name the divergent event.
func TestCompareDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := wtcp("conformance", "-dir", dir, "-update"); err != nil {
		t.Fatalf("update: %v", err)
	}
	path := filepath.Join(dir, goldens[0].name+".golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a cwnd value on the second line (first event).
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 3 {
		t.Fatal("golden too short to tamper with")
	}
	lines[1] = strings.Replace(lines[1], "cwnd=", "cwnd=9", 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = wtcp("conformance", "-dir", dir)
	if err == nil {
		t.Fatal("tampered golden passed the gate")
	}
	if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("error does not report drift: %v", err)
	}
}

// TestLegacyGoldensSurviveZooRefactor pins the four goldens that predate
// the protocol zoo (Tahoe sender, ARQ/EBSN base station) byte-for-byte:
// the zoo's variant plumbing, the oracle's profile split, and the Snoop
// hooks must leave every pre-existing scenario's trace untouched. A
// failure here means the refactor changed committed protocol behaviour,
// not just added to it.
func TestLegacyGoldensSurviveZooRefactor(t *testing.T) {
	legacy := map[string]bool{
		"wan-basic": true, "wan-ebsn": true, "lan-local": true, "lan-ebsn": true,
	}
	seen := 0
	for _, g := range goldens {
		if !legacy[g.name] {
			continue
		}
		seen++
		t.Run(g.name, func(t *testing.T) {
			cfg := g.build()
			cfg.CollectTrace = true
			cfg.Oracle = true
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "goldens", g.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if res.Trace.Encode() != string(want) {
				t.Fatalf("legacy golden %s drifted: the zoo refactor changed pre-existing protocol behaviour", g.name)
			}
		})
	}
	if seen != len(legacy) {
		t.Fatalf("found %d of %d legacy scenarios in the scenario list", seen, len(legacy))
	}
}

// TestMissingGoldenIsAnError keeps the gate honest on fresh checkouts: a
// missing golden must fail, not silently pass.
func TestMissingGoldenIsAnError(t *testing.T) {
	if _, _, err := wtcp("conformance", "-dir", t.TempDir()); err == nil {
		t.Fatal("missing goldens passed the gate")
	}
}

func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
