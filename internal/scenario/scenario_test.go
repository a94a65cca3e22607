package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// build is ParseFile followed by Build, the path every scenario takes.
func build(body string) (core.Config, error) {
	sf, err := ParseFile([]byte(body))
	if err != nil {
		return core.Config{}, err
	}
	return sf.Build()
}

func TestLoadScenarioFull(t *testing.T) {
	cfg, err := build(`{
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
	cfg, err := build(`{"preset": "lan", "scheme": "basic", "mean_bad": "800ms"}`)
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
		// The presets' 4h horizon is as explicit as a written one.
		{"chaos past preset horizon", `{"chaos": {"crashes": [{"at": "5h", "downtime": "2s"}]}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := build(tt.body); err == nil {
				t.Error("invalid scenario accepted")
			}
		})
	}
}

func TestLoadScenarioChaos(t *testing.T) {
	cfg, err := build(`{
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
	cfg, err := build(`{"stall": "off"}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stall >= 0 {
		t.Errorf("stall \"off\" did not disable the watchdog: %v", cfg.Stall)
	}
}

// TestCanonicalBuildsTheSameConfig: for every scenario of the shared
// fuzz corpus, the canonical spelling builds the configuration the file
// builds (or the file keeps its spelling when it fails to build), so
// writing a preset's defaults out never changes what runs, and
// Canonical is idempotent. The corpus' spellings of one run share one
// canonical spelling.
func TestCanonicalBuildsTheSameConfig(t *testing.T) {
	for _, doc := range FuzzSeeds() {
		sf, err := ParseFile([]byte(doc))
		if err != nil {
			continue
		}
		c := sf.Canonical()
		want, wantErr := sf.Build()
		got, gotErr := c.Build()
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s: Build error %v, canonical Build error %v", doc, wantErr, gotErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: canonical spelling %+v builds\n%+v\nwant\n%+v", doc, c, got, want)
		}
		if again := c.Canonical(); !reflect.DeepEqual(again, c) {
			t.Errorf("%s: Canonical is not idempotent:\n%+v\nthen\n%+v", doc, c, again)
		}
	}
	spell := func(doc string) File {
		sf, err := ParseFile([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return sf.Canonical()
	}
	base := spell(`{"mean_bad":"4s","transfer_kb":20,"seed":1}`)
	if base.Horizon != "4h0m0s" || base.NotifyEvery != 1 || base.Chaos != nil {
		t.Errorf("canonical base run %+v: want the 4h horizon, notify_every 1 and no chaos plan written", base)
	}
	for _, doc := range []string{
		`{"mean_bad":"4000ms","transfer_kb":20,"horizon":"240m","notify_every":1}`,
		`{"mean_bad":"4s","transfer_kb":20,"chaos":{"blackouts":[],"crashes":[]}}`,
		`{"mean_bad":"4s","transfer_kb":20,"chaos":{"packets":[{"link":"wireless-up","reorder_delay":"50ms"}]}}`,
	} {
		if got := spell(doc); !reflect.DeepEqual(got, base) {
			t.Errorf("%s spells\n%+v\nwant the base run's\n%+v", doc, got, base)
		}
	}
	blackout := `{"mean_bad":"4s","chaos":{"blackouts":[{"link":"wireless-down","at":"%s","length":"3s"}]}}`
	if a, b := spell(fmt.Sprintf(blackout, "5s")), spell(fmt.Sprintf(blackout, "5000ms")); !reflect.DeepEqual(a, b) ||
		string(a.Chaos) != `{"blackouts":[{"link":"wireless-down","at":"5s","length":"3s"}]}` {
		t.Errorf("one blackout spells %s and %s", a.Chaos, b.Chaos)
	}
}
