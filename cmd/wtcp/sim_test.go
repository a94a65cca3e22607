package main

// Scenario-file parsing lives in internal/scenario (shared with the
// service's request validation); its unit and fuzz tests live there.
// These tests cover the sim side, -config wiring included.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasicScenario(t *testing.T) {
	out, _, err := wtcp("sim", "-scheme", "ebsn", "-packet", "576", "-bad", "2s", "-transfer", "30")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"scheme=ebsn", "throughput", "goodput", "retransmitted", "timeouts", "tput_th"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStrictMode(t *testing.T) {
	out, _, err := wtcp("sim", "-strict", "-scheme", "ebsn", "-packet", "576", "-bad", "2s", "-transfer", "30")
	if err != nil {
		t.Fatalf("strict run: %v", err)
	}
	if !strings.Contains(out, "throughput") {
		t.Errorf("strict run produced no summary:\n%s", out)
	}
}

func TestRunLANPreset(t *testing.T) {
	out, _, err := wtcp("sim", "-lan", "-scheme", "basic", "-bad", "800ms", "-transfer", "512")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "packet=1536B") {
		t.Errorf("LAN preset not applied:\n%s", out)
	}
}

func TestRunReplications(t *testing.T) {
	out, _, err := wtcp("sim", "-scheme", "basic", "-transfer", "20", "-reps", "3")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "sd ") {
		t.Errorf("replicated run shows no deviation:\n%s", out)
	}
}

// TestSimOutputMatchesGoldens pins wtcp sim's success-path bytes for a
// replicated run, its JSON document and its -v detail. The goldens under
// testdata/sim were written by the for-seed loop sim ran before it moved
// onto the experiment engine; regenerate one only for a deliberate change
// to sim's output or to the simulation itself.
func TestSimOutputMatchesGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"reps3", []string{"-scheme", "basic", "-transfer", "20", "-reps", "3"}},
		{"reps2-json", []string{"-scheme", "ebsn", "-transfer", "40", "-bad", "4s", "-reps", "2", "-json"}},
		{"verbose", []string{"-scheme", "localrecovery", "-transfer", "40", "-bad", "4s", "-seed", "3", "-v"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "sim", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out, errOut, err := wtcp(append([]string{"sim"}, c.args...)...)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out != string(want) || errOut != "" {
				t.Errorf("wtcp sim %s:\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", strings.Join(c.args, " "), out, errOut, want)
			}
		})
	}
}

func TestRunVerbose(t *testing.T) {
	out, _, err := wtcp("sim", "-scheme", "localrecovery", "-transfer", "20", "-v")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "sender:") || !strings.Contains(out, "downlink:") {
		t.Errorf("verbose output missing component stats:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if _, _, err := wtcp("sim", "-scheme", "bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, _, err := wtcp("sim", "-packet", "10"); err == nil {
		t.Error("sub-header packet size accepted")
	}
	if _, _, err := wtcp("sim", "-nonsense"); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunSplitScheme(t *testing.T) {
	out, _, err := wtcp("sim", "-scheme", "split", "-transfer", "20")
	if err != nil {
		t.Fatalf("split run: %v", err)
	}
	if !strings.Contains(out, "scheme=split") {
		t.Errorf("split output wrong:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	out, _, err := wtcp("sim", "-scheme", "ebsn", "-transfer", "20", "-reps", "2", "-json")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if parsed["scheme"] != "ebsn" {
		t.Errorf("scheme = %v", parsed["scheme"])
	}
	if parsed["replications"].(float64) != 2 {
		t.Errorf("replications = %v", parsed["replications"])
	}
	if _, ok := parsed["last_replication"].(map[string]any); !ok {
		t.Error("component detail missing")
	}
	if parsed["throughput_kbps_mean"].(float64) <= 0 {
		t.Error("zero throughput in JSON output")
	}
}

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithConfigFile(t *testing.T) {
	path := writeScenario(t, `{"scheme": "ebsn", "mean_bad": "2s", "transfer_kb": 20}`)
	out, _, err := wtcp("sim", "-config", path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "scheme=ebsn") || !strings.Contains(out, "throughput") {
		t.Errorf("config-file run output:\n%s", out)
	}
}

func TestRunWithConfigFileReplications(t *testing.T) {
	path := writeScenario(t, `{"scheme": "basic", "transfer_kb": 20, "seed": 5}`)
	out, _, err := wtcp("sim", "-config", path, "-reps", "3")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "sd ") {
		t.Errorf("replicated config run shows no deviation:\n%s", out)
	}
}

// TestSimFailureMessages pins what sim says when replications fail: a
// spent budget keeps the hint naming the flags that raise or lift it, a
// summary over fewer replications than asked says how many it lost, and a
// run the horizon cuts off is a failed replication, never a throughput
// (its Summary would divide the whole transfer by the horizon).
func TestSimFailureMessages(t *testing.T) {
	_, _, err := wtcp("sim", "-max-events", "3000", "-reps", "2")
	if err == nil || !strings.Contains(err.Error(), "events budget exhausted") ||
		!strings.Contains(err.Error(), "raise -max-events/-run-deadline or pass -no-run-budget") {
		t.Errorf("budget-exhausted sim returned %v, want the budget error with its hint", err)
	}

	// An 18 s horizon cuts off one of these four 20 KB transfers, and its
	// retry under a perturbed seed as well.
	path := writeScenario(t, `{"scheme": "basic", "transfer_kb": 20, "mean_bad": "4s", "horizon": "18s"}`)
	out, errOut, err := wtcp("sim", "-config", path, "-reps", "4")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if errOut != "1 of 4 replications failed; summary covers the rest\n" || !strings.Contains(out, "throughput") {
		t.Errorf("partly failed sim:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}

	path = writeScenario(t, `{"scheme": "ebsn", "mean_bad": "2s", "horizon": "10s"}`)
	out, _, err = wtcp("sim", "-config", path, "-reps", "2")
	if err == nil || !strings.Contains(err.Error(), "did not complete") || strings.Contains(out, "throughput") {
		t.Errorf("horizon-capped sim returned %v with output:\n%s", err, out)
	}
}

func TestRunWithBadConfigFile(t *testing.T) {
	path := writeScenario(t, `{"bogus": 1}`)
	if _, _, err := wtcp("sim", "-config", path); err == nil {
		t.Error("run accepted a scenario with an unknown field")
	}
}
