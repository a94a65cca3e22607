package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// File is the one spelling of a scenario: wtcp sim fills one from the
// flags it is given or decodes its -config file into one, and a wtcpd
// /v1/run request carries one; Build turns it into the run's
// configuration. Durations are human-readable strings ("4s", "800ms");
// omitted fields keep the preset's value. Example:
//
//	{
//	  "preset": "wan",
//	  "scheme": "ebsn",
//	  "packet_size_bytes": 1536,
//	  "mean_bad": "4s",
//	  "transfer_kb": 100,
//	  "sack": true,
//	  "seed": 7,
//	  "checks": true,
//	  "budget": {"max_events": 2000000, "wall_clock": "1m"},
//	  "chaos": {
//	    "blackouts": [{"link": "wireless-down", "at": "5s", "length": "3s"}],
//	    "crashes":   [{"at": "20s", "downtime": "2s"}],
//	    "notify":    {"loss_prob": 0.5}
//	  }
//	}
type File struct {
	Preset          string  `json:"preset,omitempty"` // "wan" (default) or "lan"
	Scheme          string  `json:"scheme,omitempty"`
	PacketSizeBytes int     `json:"packet_size_bytes,omitempty"`
	TransferKB      int64   `json:"transfer_kb,omitempty"`
	WindowKB        int     `json:"window_kb,omitempty"`
	MTUBytes        int     `json:"mtu_bytes,omitempty"` // wireless fragmentation threshold (-1 disables)
	WiredKbps       float64 `json:"wired_kbps,omitempty"`
	WirelessKbps    float64 `json:"wireless_kbps,omitempty"`
	MeanGood        string  `json:"mean_good,omitempty"`
	MeanBad         string  `json:"mean_bad,omitempty"`
	Deterministic   bool    `json:"deterministic,omitempty"`
	Variant         string  `json:"variant,omitempty"` // tahoe (default), reno, newreno, sack
	DelayedAcks     bool    `json:"delayed_acks,omitempty"`
	SACK            bool    `json:"sack,omitempty"`
	ECN             bool    `json:"ecn,omitempty"`
	NotifyEvery     int     `json:"notify_every,omitempty"`
	CrossTrafficPct int     `json:"cross_traffic_pct,omitempty"` // % of wired capacity
	Seed            int64   `json:"seed,omitempty"`
	CollectTrace    bool    `json:"collect_trace,omitempty"`
	Horizon         string  `json:"horizon,omitempty"` // virtual-time cap ("10m")

	// Robustness knobs: Chaos holds an inline fault-injection plan (see
	// internal/chaos for the schema), Checks enables runtime invariant
	// checking, and Stall tunes the no-progress watchdog window ("5m";
	// "off" disables it). Budget bounds the run's resource consumption
	// (schema shared with /v1/sweep campaign manifests); exhausting any
	// ceiling halts the run with a budget error.
	Chaos  json.RawMessage `json:"chaos,omitempty"`
	Checks bool            `json:"checks,omitempty"`
	Stall  string          `json:"stall,omitempty"`
	Budget *Budget         `json:"budget,omitempty"`
}

// ParseFile decodes scenario JSON into its file form. Unknown fields
// are rejected so a typoed knob fails loudly instead of being ignored;
// Build performs full validation.
func ParseFile(raw []byte) (File, error) {
	var sf File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return File{}, fmt.Errorf("parse: %w", err)
	}
	return sf, nil
}

// validate rejects malformed or contradictory field values before they
// turn into a half-built configuration, with messages that say how to fix
// the field.
func (sf File) validate() error {
	switch {
	case sf.PacketSizeBytes < 0:
		return fmt.Errorf("packet_size_bytes %d is negative; give the full wired packet size in bytes (header included, e.g. 576)", sf.PacketSizeBytes)
	case sf.PacketSizeBytes > 0 && sf.PacketSizeBytes <= 40:
		return fmt.Errorf("packet_size_bytes %d does not exceed the 40-byte TCP/IP header; the paper sweeps 128-1536", sf.PacketSizeBytes)
	case sf.TransferKB < 0:
		return fmt.Errorf("transfer_kb %d is negative; give the bulk transfer size in KB", sf.TransferKB)
	case sf.WindowKB < 0:
		return fmt.Errorf("window_kb %d is negative; give the advertised window in KB", sf.WindowKB)
	case sf.MTUBytes < -1:
		return fmt.Errorf("mtu_bytes %d is invalid; give a positive wireless MTU, 0 to keep the preset, or -1 to disable fragmentation", sf.MTUBytes)
	case sf.WiredKbps < 0:
		return fmt.Errorf("wired_kbps %v is negative; give the wired link rate in Kbps", sf.WiredKbps)
	case sf.WirelessKbps < 0:
		return fmt.Errorf("wireless_kbps %v is negative; give the raw wireless rate in Kbps", sf.WirelessKbps)
	case sf.NotifyEvery < 0:
		return fmt.Errorf("notify_every %d is negative; 0 or 1 notifies on every failed attempt, N thins to every Nth", sf.NotifyEvery)
	case sf.CrossTrafficPct < 0 || sf.CrossTrafficPct > 100:
		return fmt.Errorf("cross_traffic_pct %d outside [0, 100]; it is the share of wired capacity given to background load", sf.CrossTrafficPct)
	}
	return nil
}

// defaultMeanBad is the mean bad period of a file that names none.
const defaultMeanBad = 2 * time.Second

// Canonical is the file's canonical spelling (see BuildCanonical), or
// the file as written when it does not build.
func (sf File) Canonical() File {
	_, c, err := sf.BuildCanonical()
	if err != nil {
		return sf
	}
	return c
}

// BuildCanonical builds the file and spells it the one way every
// equivalent spelling shares: each field is read back from the
// configuration built, so a preset's defaults are written out (the
// preset, scheme, variant, sizes, rates, periods, seed, notify_every
// and the 4h horizon), every duration is rendered by
// time.Duration.String ("4000ms" becomes "4s"), a disabled MTU, stall
// or budget ceiling reads -1 or "off", and the chaos plan is rendered
// from its parsed form (chaos.Config.JSON), or left out when it injects
// nothing. Only the preset's name ("wan" when unnamed) and
// cross_traffic_pct, a share of the wired rate, are taken from the
// file. The spelling builds the same configuration again and is its
// own canonical spelling.
func (sf File) BuildCanonical() (core.Config, File, error) {
	cfg, err := sf.Build()
	if err != nil {
		return core.Config{}, File{}, err
	}
	c := File{
		Preset:          cmp.Or(sf.Preset, "wan"),
		Scheme:          cfg.Scheme.String(),
		PacketSizeBytes: int(cfg.PacketSize),
		TransferKB:      int64(cfg.TransferSize / units.KB),
		WindowKB:        int(cfg.Window / units.KB),
		MTUBytes:        cmp.Or(int(cfg.MTU), -1),
		WiredKbps:       kbps(cfg.WiredRate),
		WirelessKbps:    kbps(cfg.WirelessRate),
		MeanGood:        cfg.Channel.MeanGood.String(),
		MeanBad:         cfg.Channel.MeanBad.String(),
		Deterministic:   cfg.Channel.Deterministic,
		Variant:         cfg.Variant.String(),
		DelayedAcks:     cfg.DelayedAcks,
		SACK:            cfg.SACK,
		ECN:             cfg.ECN,
		NotifyEvery:     cfg.NotifyEvery,
		CrossTrafficPct: sf.CrossTrafficPct,
		Seed:            cfg.Seed,
		CollectTrace:    cfg.CollectTrace,
		Horizon:         cfg.Horizon.String(),
		Checks:          cfg.Checks,
		Stall:           spellDur(cfg.Stall),
	}
	if cfg.Chaos != nil {
		c.Chaos = cfg.Chaos.JSON()
	}
	if b := cfg.Budget; b != (sim.Budget{}) {
		c.Budget = &Budget{MaxEvents: b.MaxEvents, MaxVirtual: spellDur(b.MaxVirtual),
			WallClock: spellDur(b.WallClock), MaxHeapBytes: b.MaxHeapBytes}
	}
	return cfg, c, nil
}

// kbps spells a link rate as a Kbps value Build turns back into it.
func kbps(r units.BitRate) float64 {
	k := float64(r) / float64(units.Kbps)
	for math.Trunc(k*1000) > float64(r) {
		k = math.Nextafter(k, 0)
	}
	for math.Trunc(k*1000) < float64(r) {
		k = math.Nextafter(k, math.Inf(1))
	}
	return k
}

// spellDur spells an optional duration as Build reads it back: zero as
// unset and a negative (disabled) one as "off".
func spellDur(d time.Duration) string {
	switch {
	case d == 0:
		return ""
	case d < 0:
		return "off"
	}
	return d.String()
}

// Build converts the file into a core.Config: the named preset at the
// file's scheme and mean bad period, with every field the file sets
// written over it.
func (sf File) Build() (core.Config, error) {
	if err := sf.validate(); err != nil {
		return core.Config{}, err
	}
	scheme := bs.Basic
	if sf.Scheme != "" {
		s, err := bs.ParseScheme(sf.Scheme)
		if err != nil {
			return core.Config{}, err
		}
		scheme = s
	}
	meanBad := defaultMeanBad
	if d, err := ParsePositiveDur("mean_bad", sf.MeanBad); err != nil {
		return core.Config{}, err
	} else if d > 0 {
		meanBad = d
	}
	var cfg core.Config
	switch sf.Preset {
	case "", "wan":
		cfg = core.WAN(scheme, core.PaperWANPacketDefault, meanBad)
	case "lan":
		cfg = core.LAN(scheme, meanBad)
	default:
		return core.Config{}, fmt.Errorf("unknown preset %q (want wan or lan)", sf.Preset)
	}
	if sf.PacketSizeBytes > 0 {
		cfg.PacketSize = units.ByteSize(sf.PacketSizeBytes)
	}

	if d, err := ParsePositiveDur("mean_good", sf.MeanGood); err != nil {
		return core.Config{}, err
	} else if d > 0 {
		cfg.Channel.MeanGood = d
	}
	cfg.Channel.Deterministic = sf.Deterministic
	if sf.TransferKB > 0 {
		cfg.TransferSize = units.ByteSize(sf.TransferKB) * units.KB
	}
	if sf.WindowKB > 0 {
		cfg.Window = units.ByteSize(sf.WindowKB) * units.KB
	}
	switch sf.MTUBytes {
	case 0: // keep the preset
	case -1:
		cfg.MTU = 0
	default:
		cfg.MTU = units.ByteSize(sf.MTUBytes)
	}
	if sf.WiredKbps > 0 {
		cfg.WiredRate = units.BitRate(sf.WiredKbps * 1000)
	}
	if sf.WirelessKbps > 0 {
		cfg.WirelessRate = units.BitRate(sf.WirelessKbps * 1000)
	}
	cfg.Variant = tcp.Tahoe
	if sf.Variant != "" {
		v, err := tcp.ParseVariant(sf.Variant)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Variant = v
	}
	cfg.DelayedAcks = sf.DelayedAcks
	cfg.SACK = sf.SACK
	cfg.ECN = sf.ECN
	if sf.NotifyEvery > 0 {
		cfg.NotifyEvery = sf.NotifyEvery
	}
	if sf.CrossTrafficPct > 0 {
		cfg.CrossTraffic = core.CrossTraffic{
			Rate: units.BitRate(float64(sf.CrossTrafficPct) / 100 * float64(cfg.WiredRate)),
		}
	}
	if sf.Seed != 0 {
		cfg.Seed = sf.Seed
	}
	cfg.CollectTrace = sf.CollectTrace
	if d, err := ParsePositiveDur("horizon", sf.Horizon); err != nil {
		return core.Config{}, err
	} else if d > 0 {
		cfg.Horizon = d
	}

	if len(sf.Chaos) > 0 {
		plan, err := chaos.Parse(sf.Chaos)
		if err != nil {
			return core.Config{}, err
		}
		if h := plan.Horizon(); h > cfg.Horizon {
			return core.Config{}, fmt.Errorf("chaos plan schedules faults until %v but the horizon ends at %v; raise horizon or move the faults earlier", h, cfg.Horizon)
		}
		if plan.Enabled() { // a plan that injects nothing runs as none
			cfg.Chaos = plan
		}
	}
	cfg.Checks = sf.Checks
	if sf.Budget != nil {
		b, err := sf.Budget.Build()
		if err != nil {
			return core.Config{}, err
		}
		cfg.Budget = b
	}
	switch sf.Stall {
	case "":
	case "off":
		cfg.Stall = -1
	default:
		d, err := ParsePositiveDur("stall", sf.Stall)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Stall = d
	}
	return cfg, cfg.Validate()
}
