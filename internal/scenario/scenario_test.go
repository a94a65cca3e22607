package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenarioFull(t *testing.T) {
	path := writeScenario(t, `{
		"preset": "wan",
		"scheme": "ebsn",
		"packet_size_bytes": 1536,
		"transfer_kb": 50,
		"window_kb": 8,
		"mean_good": "8s",
		"mean_bad": "3s",
		"deterministic": true,
		"variant": "newreno",
		"delayed_acks": true,
		"sack": true,
		"ecn": true,
		"notify_every": 2,
		"cross_traffic_pct": 30,
		"seed": 42,
		"collect_trace": true
	}`)
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != bs.EBSN || cfg.PacketSize != 1536 {
		t.Errorf("scheme/packet = %v/%v", cfg.Scheme, cfg.PacketSize)
	}
	if cfg.TransferSize != 50*units.KB || cfg.Window != 8*units.KB {
		t.Errorf("transfer/window = %v/%v", cfg.TransferSize, cfg.Window)
	}
	if cfg.Channel.MeanGood != 8*time.Second || cfg.Channel.MeanBad != 3*time.Second {
		t.Errorf("channel = %+v", cfg.Channel)
	}
	if !cfg.Channel.Deterministic || !cfg.DelayedAcks || !cfg.SACK || !cfg.ECN || !cfg.CollectTrace {
		t.Error("boolean options not applied")
	}
	if cfg.Variant != tcp.NewReno || cfg.NotifyEvery != 2 || cfg.Seed != 42 {
		t.Errorf("variant/notify/seed = %v/%d/%d", cfg.Variant, cfg.NotifyEvery, cfg.Seed)
	}
	if cfg.CrossTraffic.Rate != units.BitRate(0.3*56000) {
		t.Errorf("cross traffic = %v", cfg.CrossTraffic.Rate)
	}
}

func TestLoadScenarioLANDefaults(t *testing.T) {
	path := writeScenario(t, `{"preset": "lan", "scheme": "basic", "mean_bad": "800ms"}`)
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WirelessRate != 2*units.Mbps || cfg.PacketSize != 1536 {
		t.Errorf("LAN preset not applied: %v/%v", cfg.WirelessRate, cfg.PacketSize)
	}
}

func TestLoadScenarioRejections(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"bogus": 1}`},
		{"unknown preset", `{"preset": "moon"}`},
		{"unknown scheme", `{"scheme": "bogus"}`},
		{"unknown variant", `{"variant": "vegas"}`},
		{"bad duration", `{"mean_bad": "sometimes"}`},
		{"invalid config", `{"packet_size_bytes": 10}`},
		{"negative packet size", `{"packet_size_bytes": -1}`},
		{"negative transfer", `{"transfer_kb": -5}`},
		{"negative window", `{"window_kb": -1}`},
		{"bad mtu", `{"mtu_bytes": -2}`},
		{"negative wired rate", `{"wired_kbps": -56}`},
		{"negative wireless rate", `{"wireless_kbps": -19.2}`},
		{"negative notify thinning", `{"notify_every": -1}`},
		{"cross traffic over 100", `{"cross_traffic_pct": 150}`},
		{"negative mean_bad", `{"mean_bad": "-2s"}`},
		{"bad horizon", `{"horizon": "eventually"}`},
		{"negative stall", `{"stall": "-3s"}`},
		{"bad stall word", `{"stall": "never"}`},
		{"bad chaos json", `{"chaos": {"blackouts": "all of them"}}`},
		{"chaos unknown link", `{"chaos": {"blackouts": [{"link": "nope", "at": "1s", "length": "1s"}]}}`},
		{"chaos past horizon", `{"horizon": "10s", "chaos": {"crashes": [{"at": "20s", "downtime": "2s"}]}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := writeScenario(t, tt.body)
			if _, err := Load(path); err == nil {
				t.Error("invalid scenario accepted")
			}
		})
	}
	if _, err := Load("/nonexistent/path.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadScenarioChaos(t *testing.T) {
	path := writeScenario(t, `{
		"scheme": "ebsn",
		"transfer_kb": 20,
		"horizon": "5m",
		"checks": true,
		"stall": "2m",
		"chaos": {
			"blackouts": [{"link": "wireless-down", "at": "5s", "length": "3s"}],
			"crashes":   [{"at": "20s", "downtime": "2s"}],
			"notify":    {"loss_prob": 0.5}
		}
	}`)
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Chaos.Enabled() {
		t.Error("chaos plan not applied")
	}
	if !cfg.Checks || cfg.Stall != 2*time.Minute {
		t.Errorf("checks/stall = %v/%v", cfg.Checks, cfg.Stall)
	}
	if len(cfg.Chaos.Blackouts) != 1 || len(cfg.Chaos.Crashes) != 1 || cfg.Chaos.Notify.LossProb != 0.5 {
		t.Errorf("chaos plan = %+v", cfg.Chaos)
	}
}

func TestLoadScenarioStallOff(t *testing.T) {
	path := writeScenario(t, `{"stall": "off"}`)
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stall >= 0 {
		t.Errorf("stall \"off\" did not disable the watchdog: %v", cfg.Stall)
	}
}

// TestCanonicalBuildsTheSameConfig: for every scenario of the shared
// fuzz corpus, the canonical spelling builds the configuration the file
// builds (or fails as the file does), so writing a preset's defaults
// out never changes what runs.
func TestCanonicalBuildsTheSameConfig(t *testing.T) {
	for _, doc := range FuzzSeeds() {
		sf, err := ParseFile([]byte(doc))
		if err != nil {
			continue
		}
		want, wantErr := sf.Build()
		got, gotErr := sf.Canonical().Build()
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s: Build error %v, canonical Build error %v", doc, wantErr, gotErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: canonical spelling %+v builds\n%+v\nwant\n%+v", doc, sf.Canonical(), got, want)
		}
	}
}
