package main

// Scenario-file parsing lives in internal/scenario (shared with the
// service's request validation); its unit and fuzz tests live there.
// These tests cover the sim side, -config wiring included.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
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
	if _, _, err := wtcp("sim", "-config", filepath.Join(t.TempDir(), "missing.json")); err == nil ||
		!strings.HasPrefix(err.Error(), "read scenario: ") {
		t.Errorf("missing scenario file: err %v, want a read error", err)
	}
}

// TestSimConfigParity pins the configuration wtcp sim builds for a flag
// set: the preset the flags name, with each given flag written over it
// as a scenario file's field would be — the sim goldens' flag sets
// (-reps, -json and -v do not reach the configuration) and each other
// scenario flag. -lan -packet N runs N-byte packets, as a local-area
// scenario file's packet_size_bytes does; -config takes the whole
// scenario from the file, its seed included, and -checks and -strict
// still switch checking on (TestSimConfigRefusesScenarioFlags pins the
// flags it refuses).
func TestSimConfigParity(t *testing.T) {
	path := writeScenario(t, `{"preset":"lan","scheme":"snoop","mean_bad":"1s","sack":true,"seed":5}`)
	wan := func(s bs.Scheme, bad time.Duration, edit func(*core.Config)) core.Config {
		cfg := core.WAN(s, core.PaperWANPacketDefault, bad)
		cfg.Variant = tcp.Tahoe
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	lan := func(s bs.Scheme, bad time.Duration, edit func(*core.Config)) core.Config {
		cfg := core.LAN(s, bad)
		cfg.Variant = tcp.Tahoe
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	for _, c := range []struct {
		args []string
		want core.Config
	}{
		{nil, wan(bs.Basic, 2*time.Second, nil)},
		{[]string{"-scheme", "basic", "-transfer", "20"}, wan(bs.Basic, 2*time.Second, func(c *core.Config) { c.TransferSize = 20 * units.KB })},
		{[]string{"-scheme", "ebsn", "-transfer", "40", "-bad", "4s"}, wan(bs.EBSN, 4*time.Second, func(c *core.Config) { c.TransferSize = 40 * units.KB })},
		{[]string{"-scheme", "localrecovery", "-transfer", "40", "-bad", "4s", "-seed", "3"}, wan(bs.LocalRecovery, 4*time.Second, func(c *core.Config) {
			c.TransferSize, c.Seed = 40*units.KB, 3
		})},
		{[]string{"-seed", "0"}, wan(bs.Basic, 2*time.Second, func(c *core.Config) { c.Seed = 0 })},
		{[]string{"-scheme", "ebsn", "-packet", "1536", "-bad", "4s"}, wan(bs.EBSN, 4*time.Second, func(c *core.Config) { c.PacketSize = 1536 })},
		{[]string{"-lan", "-scheme", "ebsn", "-bad", "800ms"}, lan(bs.EBSN, 800*time.Millisecond, nil)},
		{[]string{"-lan", "-packet", "576"}, lan(bs.Basic, 2*time.Second, func(c *core.Config) { c.PacketSize = 576 })},
		{[]string{"-lan", "-good", "3s", "-transfer", "512", "-variant", "sack"}, lan(bs.Basic, 2*time.Second, func(c *core.Config) {
			c.Channel.MeanGood, c.TransferSize, c.Variant = 3*time.Second, 512*units.KB, tcp.SACKVariant
		})},
		{[]string{"-good", "20s", "-variant", "newreno", "-checks", "-strict"}, wan(bs.Basic, 2*time.Second, func(c *core.Config) {
			c.Channel.MeanGood, c.Variant, c.Checks, c.Oracle = 20*time.Second, tcp.NewReno, true, true
		})},
		{[]string{"-config", path, "-checks", "-strict"}, lan(bs.Snoop, time.Second, func(c *core.Config) {
			c.SACK, c.Seed, c.Checks, c.Oracle = true, 5, true, true
		})},
		{[]string{"-config", path}, lan(bs.Snoop, time.Second, func(c *core.Config) { c.SACK, c.Seed = true, 5 })},
	} {
		var sc simScenario
		fs := flag.NewFlagSet("sim", flag.ContinueOnError)
		sc.declare(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got, err := sc.config(fs)
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q builds\n%+v\nwant\n%+v", c.args, got, c.want)
		}
	}
}

// TestSimConfigRefusesScenarioFlags: -config takes the whole scenario
// from its file, so a scenario flag set beside it is refused, all of
// them named in one error, while the replication, output, checking and
// budget flags run the file's scenario. -cell refuses the same way
// every flag the cell engine does not read.
func TestSimConfigRefusesScenarioFlags(t *testing.T) {
	_, _, err := wtcp("sim", "-cell", "50", "-config", "/nonexistent.json", "-scheme", "bogus", "-variant", "reno", "-packet", "576",
		"-bad", "4s", "-good", "3s", "-transfer", "40", "-lan", "-reps", "3", "-checks", "-strict", "-v")
	if err == nil || !strings.Contains(err.Error(), "does not read -bad -checks -config -good -lan -packet -reps -scheme -strict -transfer -v -variant; drop them") {
		t.Errorf("-cell beside every flag it ignores returned %v, want one refusal naming all twelve", err)
	}
	if out, _, err := wtcp("sim", "-cell", "50", "-cell-policy", "fifo", "-seed", "3", "-json", "-max-events", "100000000"); err != nil || !strings.Contains(out, `"completed_flows":50`) {
		t.Errorf("-cell with the flags it reads: %v\n%s", err, out)
	}
	path := writeScenario(t, `{"scheme": "ebsn", "transfer_kb": 20, "mean_bad": "1s", "seed": 5}`)
	_, _, err = wtcp("sim", "-config", path, "-seed", "9", "-lan", "-scheme", "basic", "-variant", "reno",
		"-packet", "576", "-bad", "4s", "-good", "3s", "-transfer", "40", "-reps", "2")
	if err == nil || !strings.Contains(err.Error(), "drop -bad -good -lan -packet -scheme -seed -transfer -variant or set it in the file") {
		t.Errorf("-config beside every scenario flag returned %v, want one refusal naming all eight", err)
	}
	if _, _, err := wtcp("sim", "-config", path, "-bad", "2s"); err == nil || !strings.Contains(err.Error(), "drop -bad or") {
		t.Errorf("-config beside a default-valued -bad returned %v, want it refused", err)
	}
	out, _, err := wtcp("sim", "-config", path, "-reps", "2", "-json", "-v", "-checks", "-strict",
		"-max-events", "100000000", "-run-deadline", "1m")
	if err != nil {
		t.Fatalf("-config with the replication, output, checking and budget flags: %v", err)
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(out), &res); err != nil || res.Replications != 2 || res.Scheme != "ebsn" || res.TransferBytes != 20*1024 {
		t.Errorf("-config run printed %+v (%v), want 2 replications of the file's 20 KB EBSN transfer:\n%s", res, err, out)
	}
}
