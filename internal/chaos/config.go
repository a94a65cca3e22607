// Package chaos is the repository's fault-injection subsystem: a
// deterministic, seed-driven layer that composes with any scenario and
// injects the adverse conditions the paper's error model does not
// schedule — link blackouts and burst-loss storms, base-station
// crash/restart with ARQ-state loss, periodic cell handoffs, EBSN
// notification loss/delay/duplication, and packet corruption,
// duplication, and reordering at the wired or wireless hop.
//
// All randomness flows from one sim.RNG derived from the scenario seed,
// so a chaos run is reproducible bit-for-bit from (config, seed) alone —
// the property the whole evaluation methodology rests on. Scheduled
// faults (blackouts, storms, crashes) fire at configured virtual times;
// probabilistic faults (corruption, duplication, reordering, EBSN loss)
// draw per packet from the chaos RNG, never from the RNGs that drive the
// channel or the ARQ backoff, so enabling chaos does not perturb those
// processes' draw sequences within a run.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"wtcp/internal/errmodel"
)

// Link names addressable by fault configuration, matching the labels the
// core topology gives its four hops.
const (
	WiredFwd     = "wired-fwd"     // FH -> BS
	WiredRev     = "wired-rev"     // BS -> FH (acks, EBSNs)
	WirelessDown = "wireless-down" // BS -> MH
	WirelessUp   = "wireless-up"   // MH -> BS
)

// knownLinks lists every addressable hop.
var knownLinks = []string{WiredFwd, WiredRev, WirelessDown, WirelessUp}

func knownLink(name string) bool {
	for _, l := range knownLinks {
		if l == name {
			return true
		}
	}
	return false
}

// Blackout is a total outage of one hop: every transmission overlapping
// the window is lost (wireless hops model it as a certain-corruption
// fade; wired hops as a dead interface).
type Blackout struct {
	// Link names the hop ("wired-fwd", "wired-rev", "wireless-down",
	// "wireless-up").
	Link string
	// At is the virtual time the outage begins; Length its duration.
	At     time.Duration
	Length time.Duration
}

// Storm is a burst-loss window beyond what the Markov error process
// schedules: during [At, At+Length) every delivery on the hop is lost
// independently with probability LossProb.
type Storm struct {
	Link     string
	At       time.Duration
	Length   time.Duration
	LossProb float64
}

// Crash is one base-station failure: the station loses all soft state
// (ARQ windows, timers, snoop cache, radio queue) at At and ignores all
// traffic until At+Downtime.
type Crash struct {
	At       time.Duration
	Downtime time.Duration
}

// Handoff is the mobile host moving between cells [Caceres & Iftode 94],
// over and over: it stays Dwell in a cell, then is detached for Gap while
// it switches to the next one. On detach the base station loses its radio
// queue and its ARQ and snoop state; for the gap, wired arrivals at the
// station and downlink deliveries to the mobile host are lost, while the
// uplink is left alone. With DupAcks the mobile host sends three duplicate
// ACKs at rcv_nxt on reattach, turning the source's timeout into a fast
// retransmit.
type Handoff struct {
	Dwell   time.Duration
	Gap     time.Duration
	DupAcks bool
}

// NotifyFaults degrades the EBSN/quench notification stream on the
// reverse wired hop: each notification is independently lost with
// LossProb, duplicated with DupProb, and (if it survives) delayed by
// Delay with DelayProb.
type NotifyFaults struct {
	LossProb  float64
	DupProb   float64
	DelayProb float64
	Delay     time.Duration
}

func (n NotifyFaults) enabled() bool {
	return n.LossProb > 0 || n.DupProb > 0 || (n.DelayProb > 0 && n.Delay > 0)
}

// PacketFaults injects per-packet faults on one hop: each delivery is
// independently corrupted (lost, as a CRC failure would be) with
// CorruptProb, duplicated with DupProb, and held back by ReorderDelay
// with ReorderProb (later packets overtake it — reordering).
type PacketFaults struct {
	Link         string
	CorruptProb  float64
	DupProb      float64
	ReorderProb  float64
	ReorderDelay time.Duration
}

func (p PacketFaults) enabled() bool {
	return p.CorruptProb > 0 || p.DupProb > 0 || (p.ReorderProb > 0 && p.ReorderDelay > 0)
}

// EventStorm is a resource-exhaustion fault: starting at At it floods
// the event queue with Count self-rescheduling kernel events spaced
// Spacing apart. It models a runaway component (a timer storm, a
// pathological retry loop) that burns scheduler capacity without
// touching any packet. A Spacing of zero reproduces the same-instant
// livelock shape — every storm event fires at the same virtual instant,
// so the clock never advances and neither the horizon nor the
// virtual-time watchdog can end the run; only an event or wall-clock
// budget (sim.Budget) stops it. A Count of zero makes the storm
// unbounded: it runs until a budget, cancellation, or (with positive
// spacing) the horizon halts the run.
type EventStorm struct {
	At time.Duration
	// Count is the number of storm events; 0 = unbounded.
	Count int64
	// Spacing is the delay between consecutive storm events; 0 = all at
	// the same instant (the livelock shape).
	Spacing time.Duration
}

// Config is a complete fault-injection plan. The zero value injects
// nothing.
type Config struct {
	Blackouts   []Blackout
	Storms      []Storm
	Crashes     []Crash
	Handoff     *Handoff
	Notify      NotifyFaults
	Packets     []PacketFaults
	EventStorms []EventStorm
}

// Enabled reports whether the plan injects any fault at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	if len(c.Blackouts) > 0 || len(c.Storms) > 0 || len(c.Crashes) > 0 || c.Handoff != nil ||
		c.Notify.enabled() || len(c.EventStorms) > 0 {
		return true
	}
	for _, p := range c.Packets {
		if p.enabled() {
			return true
		}
	}
	return false
}

func probRange(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("chaos: %s %v outside [0, 1]", name, p)
	}
	return nil
}

// Validate reports whether the plan is injectable: known link names,
// probabilities in [0, 1], positive durations, and non-overlapping
// blackout windows per link (overlap would double-schedule one outage).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	perLink := map[string][]Blackout{}
	for _, b := range c.Blackouts {
		switch {
		case !knownLink(b.Link):
			return fmt.Errorf("chaos: blackout names unknown link %q (want one of %v)", b.Link, knownLinks)
		case b.At < 0:
			return fmt.Errorf("chaos: blackout on %s starts before time zero", b.Link)
		case b.Length <= 0:
			return fmt.Errorf("chaos: blackout on %s needs a positive length", b.Link)
		}
		perLink[b.Link] = append(perLink[b.Link], b)
	}
	for link, bs := range perLink {
		sort.Slice(bs, func(i, j int) bool { return bs[i].At < bs[j].At })
		for i := 1; i < len(bs); i++ {
			if bs[i].At < bs[i-1].At+bs[i-1].Length {
				return fmt.Errorf("chaos: blackouts on %s overlap at %v; merge them into one window", link, bs[i].At)
			}
		}
	}
	for _, s := range c.Storms {
		switch {
		case !knownLink(s.Link):
			return fmt.Errorf("chaos: storm names unknown link %q (want one of %v)", s.Link, knownLinks)
		case s.At < 0:
			return fmt.Errorf("chaos: storm on %s starts before time zero", s.Link)
		case s.Length <= 0:
			return fmt.Errorf("chaos: storm on %s needs a positive length", s.Link)
		}
		if err := probRange("storm loss probability", s.LossProb); err != nil {
			return err
		}
	}
	var prev *Crash
	crashes := append([]Crash(nil), c.Crashes...)
	sort.Slice(crashes, func(i, j int) bool { return crashes[i].At < crashes[j].At })
	for i := range crashes {
		cr := &crashes[i]
		switch {
		case cr.At < 0:
			return errors.New("chaos: crash scheduled before time zero")
		case cr.Downtime <= 0:
			return errors.New("chaos: crash needs a positive downtime")
		}
		if prev != nil && cr.At < prev.At+prev.Downtime {
			return fmt.Errorf("chaos: crash at %v scheduled while the station is already down", cr.At)
		}
		prev = cr
	}
	if h := c.Handoff; h != nil && (h.Dwell <= 0 || h.Gap <= 0) {
		return errors.New("chaos: handoff needs a positive dwell and gap")
	}
	for _, name := range []struct {
		label string
		p     float64
	}{
		{"EBSN loss probability", c.Notify.LossProb},
		{"EBSN duplication probability", c.Notify.DupProb},
		{"EBSN delay probability", c.Notify.DelayProb},
	} {
		if err := probRange(name.label, name.p); err != nil {
			return err
		}
	}
	if c.Notify.Delay < 0 {
		return errors.New("chaos: negative EBSN delay")
	}
	if c.Notify.DelayProb > 0 && c.Notify.Delay == 0 {
		return errors.New("chaos: EBSN delay probability set but delay is zero; set delay or drop the probability")
	}
	seen := map[string]bool{}
	for _, p := range c.Packets {
		if !knownLink(p.Link) {
			return fmt.Errorf("chaos: packet faults name unknown link %q (want one of %v)", p.Link, knownLinks)
		}
		if seen[p.Link] {
			return fmt.Errorf("chaos: duplicate packet-fault entry for link %s; merge them", p.Link)
		}
		seen[p.Link] = true
		for _, pr := range []struct {
			label string
			p     float64
		}{
			{"corruption probability", p.CorruptProb},
			{"duplication probability", p.DupProb},
			{"reorder probability", p.ReorderProb},
		} {
			if err := probRange(pr.label+" on "+p.Link, pr.p); err != nil {
				return err
			}
		}
		if p.ReorderDelay < 0 {
			return fmt.Errorf("chaos: negative reorder delay on %s", p.Link)
		}
		if p.ReorderProb > 0 && p.ReorderDelay == 0 {
			return fmt.Errorf("chaos: reorder probability set on %s but reorder delay is zero; set the delay or drop the probability", p.Link)
		}
	}
	for i, es := range c.EventStorms {
		switch {
		case es.At < 0:
			return fmt.Errorf("chaos: event storm %d starts before time zero", i)
		case es.Count < 0:
			return fmt.Errorf("chaos: event storm %d has a negative count (0 means unbounded)", i)
		case es.Spacing < 0:
			return fmt.Errorf("chaos: event storm %d has a negative spacing", i)
		}
	}
	return nil
}

// windowsFor collects the blackout and storm fault windows for one hop as
// errmodel overlay windows (blackout = BER 1, certain corruption; storm =
// probabilistic loss handled at delivery time instead, so storms do not
// appear here).
func (c *Config) windowsFor(link string) []errmodel.FaultWindow {
	if c == nil {
		return nil
	}
	var out []errmodel.FaultWindow
	for _, b := range c.Blackouts {
		if b.Link == link {
			out = append(out, errmodel.FaultWindow{Start: b.At, Length: b.Length, BER: 1})
		}
	}
	return out
}

// NeedsChannel reports whether the named hop needs a fault overlay
// channel (it has at least one blackout window).
func (c *Config) NeedsChannel(link string) bool { return len(c.windowsFor(link)) > 0 }

// OverlayChannel wraps base with this plan's blackout windows for the
// named hop. base may be nil (an error-free wired hop). When the hop has
// no windows it returns base unchanged.
func (c *Config) OverlayChannel(link string, base errmodel.Channel) (errmodel.Channel, error) {
	ws := c.windowsFor(link)
	if len(ws) == 0 {
		return base, nil
	}
	return errmodel.NewOverlay(base, ws)
}

// --- JSON form ---------------------------------------------------------
//
// The on-disk form uses human-readable duration strings, matching the
// scenario files:
//
//	{
//	  "blackouts": [{"link": "wireless-down", "at": "5s", "length": "3s"}],
//	  "storms":    [{"link": "wired-fwd", "at": "10s", "length": "2s", "loss_prob": 0.3}],
//	  "crashes":   [{"at": "20s", "downtime": "2s"}],
//	  "handoff":   {"dwell": "1s", "gap": "100ms", "dup_acks": true},
//	  "notify":    {"loss_prob": 0.5, "dup_prob": 0.1, "delay_prob": 0.2, "delay": "300ms"},
//	  "packets":   [{"link": "wireless-up", "corrupt_prob": 0.01, "dup_prob": 0.01,
//	                 "reorder_prob": 0.02, "reorder_delay": "50ms"}],
//	  "event_storms": [{"at": "5s", "count": 100000, "spacing": "0s"}]
//	}

type jsonBlackout struct {
	Link   string `json:"link"`
	At     string `json:"at"`
	Length string `json:"length"`
}

type jsonStorm struct {
	Link     string  `json:"link"`
	At       string  `json:"at"`
	Length   string  `json:"length"`
	LossProb float64 `json:"loss_prob"`
}

type jsonCrash struct {
	At       string `json:"at"`
	Downtime string `json:"downtime"`
}

type jsonHandoff struct {
	Dwell   string `json:"dwell"`
	Gap     string `json:"gap"`
	DupAcks bool   `json:"dup_acks"`
}

type jsonNotify struct {
	LossProb  float64 `json:"loss_prob"`
	DupProb   float64 `json:"dup_prob"`
	DelayProb float64 `json:"delay_prob"`
	Delay     string  `json:"delay"`
}

type jsonPacketFaults struct {
	Link         string  `json:"link"`
	CorruptProb  float64 `json:"corrupt_prob"`
	DupProb      float64 `json:"dup_prob"`
	ReorderProb  float64 `json:"reorder_prob"`
	ReorderDelay string  `json:"reorder_delay"`
}

type jsonEventStorm struct {
	At      string `json:"at"`
	Count   int64  `json:"count"`
	Spacing string `json:"spacing"`
}

type jsonConfig struct {
	Blackouts   []jsonBlackout     `json:"blackouts,omitempty"`
	Storms      []jsonStorm        `json:"storms,omitempty"`
	Crashes     []jsonCrash        `json:"crashes,omitempty"`
	Handoff     *jsonHandoff       `json:"handoff,omitempty"`
	Notify      *jsonNotify        `json:"notify,omitempty"`
	Packets     []jsonPacketFaults `json:"packets,omitempty"`
	EventStorms []jsonEventStorm   `json:"event_storms,omitempty"`
}

// durations parses the duration fields of the JSON form in order,
// keeping the first error.
type durations struct{ err error }

// req parses a required duration field.
func (p *durations) req(field, v string) time.Duration {
	if v == "" && p.err == nil {
		p.err = fmt.Errorf("chaos: %s is required (a duration like \"3s\" or \"500ms\")", field)
	}
	return p.opt(field, v)
}

// opt parses an optional duration field (empty = zero).
func (p *durations) opt(field, v string) time.Duration {
	if v == "" || p.err != nil {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		p.err = fmt.Errorf("chaos: %s: %w", field, err)
	}
	return d
}

// Parse decodes the JSON fault plan and validates it. Unknown fields are
// rejected so a typoed knob fails loudly instead of silently injecting
// nothing.
func Parse(data []byte) (*Config, error) {
	var jc jsonConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return nil, fmt.Errorf("chaos: parse config: %w", err)
	}
	cfg := &Config{}
	var p durations
	for i, b := range jc.Blackouts {
		cfg.Blackouts = append(cfg.Blackouts, Blackout{Link: b.Link,
			At: p.req(fmt.Sprintf("blackouts[%d].at", i), b.At), Length: p.req(fmt.Sprintf("blackouts[%d].length", i), b.Length)})
	}
	for i, s := range jc.Storms {
		cfg.Storms = append(cfg.Storms, Storm{Link: s.Link, At: p.req(fmt.Sprintf("storms[%d].at", i), s.At),
			Length: p.req(fmt.Sprintf("storms[%d].length", i), s.Length), LossProb: s.LossProb})
	}
	for i, cr := range jc.Crashes {
		cfg.Crashes = append(cfg.Crashes, Crash{At: p.req(fmt.Sprintf("crashes[%d].at", i), cr.At),
			Downtime: p.req(fmt.Sprintf("crashes[%d].downtime", i), cr.Downtime)})
	}
	if h := jc.Handoff; h != nil {
		cfg.Handoff = &Handoff{Dwell: p.req("handoff.dwell", h.Dwell), Gap: p.req("handoff.gap", h.Gap), DupAcks: h.DupAcks}
	}
	if n := jc.Notify; n != nil {
		cfg.Notify = NotifyFaults{LossProb: n.LossProb, DupProb: n.DupProb, DelayProb: n.DelayProb, Delay: p.opt("notify.delay", n.Delay)}
	}
	for i, es := range jc.EventStorms {
		cfg.EventStorms = append(cfg.EventStorms, EventStorm{At: p.req(fmt.Sprintf("event_storms[%d].at", i), es.At),
			Count: es.Count, Spacing: p.opt(fmt.Sprintf("event_storms[%d].spacing", i), es.Spacing)})
	}
	for i, pf := range jc.Packets {
		cfg.Packets = append(cfg.Packets, PacketFaults{Link: pf.Link, CorruptProb: pf.CorruptProb, DupProb: pf.DupProb,
			ReorderProb: pf.ReorderProb, ReorderDelay: p.opt(fmt.Sprintf("packets[%d].reorder_delay", i), pf.ReorderDelay)})
	}
	if p.err != nil {
		return nil, p.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// JSON renders the plan in the form Parse reads, every duration by
// time.Duration.String, so Parse(c.JSON()) equals c and two spellings
// of one plan render alike.
func (c *Config) JSON() json.RawMessage {
	var jc jsonConfig
	for _, b := range c.Blackouts {
		jc.Blackouts = append(jc.Blackouts, jsonBlackout{b.Link, b.At.String(), b.Length.String()})
	}
	for _, s := range c.Storms {
		jc.Storms = append(jc.Storms, jsonStorm{s.Link, s.At.String(), s.Length.String(), s.LossProb})
	}
	for _, cr := range c.Crashes {
		jc.Crashes = append(jc.Crashes, jsonCrash{cr.At.String(), cr.Downtime.String()})
	}
	if h := c.Handoff; h != nil {
		jc.Handoff = &jsonHandoff{h.Dwell.String(), h.Gap.String(), h.DupAcks}
	}
	if n := c.Notify; n != (NotifyFaults{}) {
		jc.Notify = &jsonNotify{n.LossProb, n.DupProb, n.DelayProb, n.Delay.String()}
	}
	for _, p := range c.Packets {
		jc.Packets = append(jc.Packets, jsonPacketFaults{p.Link, p.CorruptProb, p.DupProb, p.ReorderProb, p.ReorderDelay.String()})
	}
	for _, es := range c.EventStorms {
		jc.EventStorms = append(jc.EventStorms, jsonEventStorm{es.At.String(), es.Count, es.Spacing.String()})
	}
	data, _ := json.Marshal(jc) // strings, finite numbers and bools only
	return data
}
