package chaos

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// fullPlanJSON exercises every section of the on-disk form.
const fullPlanJSON = `{
	"blackouts": [{"link": "wireless-down", "at": "5s", "length": "3s"}],
	"storms":    [{"link": "wired-fwd", "at": "10s", "length": "2s", "loss_prob": 0.3}],
	"crashes":   [{"at": "20s", "downtime": "2s"}],
	"handoff":   {"dwell": "1s", "gap": "100ms", "dup_acks": true},
	"notify":    {"loss_prob": 0.5, "dup_prob": 0.1, "delay_prob": 0.2, "delay": "300ms"},
	"packets":   [{"link": "wireless-up", "corrupt_prob": 0.01, "dup_prob": 0.01,
	               "reorder_prob": 0.02, "reorder_delay": "50ms"}]
}`

func TestParseFullPlan(t *testing.T) {
	cfg, err := Parse([]byte(fullPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled() {
		t.Error("full plan reports disabled")
	}
	if len(cfg.Blackouts) != 1 || cfg.Blackouts[0].Link != WirelessDown ||
		cfg.Blackouts[0].At != 5*time.Second || cfg.Blackouts[0].Length != 3*time.Second {
		t.Errorf("blackouts = %+v", cfg.Blackouts)
	}
	if len(cfg.Storms) != 1 || cfg.Storms[0].LossProb != 0.3 {
		t.Errorf("storms = %+v", cfg.Storms)
	}
	if len(cfg.Crashes) != 1 || cfg.Crashes[0].Downtime != 2*time.Second {
		t.Errorf("crashes = %+v", cfg.Crashes)
	}
	if h := cfg.Handoff; h == nil || *h != (Handoff{Dwell: time.Second, Gap: 100 * time.Millisecond, DupAcks: true}) {
		t.Errorf("handoff = %+v", cfg.Handoff)
	}
	if cfg.Notify.LossProb != 0.5 || cfg.Notify.Delay != 300*time.Millisecond {
		t.Errorf("notify = %+v", cfg.Notify)
	}
	if len(cfg.Packets) != 1 || cfg.Packets[0].ReorderDelay != 50*time.Millisecond {
		t.Errorf("packets = %+v", cfg.Packets)
	}
	if got, want := cfg.Horizon(), 22*time.Second; got != want {
		t.Errorf("Horizon() = %v, want %v (crash at 20s + 2s downtime)", got, want)
	}
}

// TestPlanJSONRoundTrips: JSON renders a plan in the form Parse reads
// back to the same plan, and two spellings of one plan render alike.
func TestPlanJSONRoundTrips(t *testing.T) {
	full := strings.Replace(fullPlanJSON, `"packets"`, `"event_storms": [{"at": "5s", "count": 100, "spacing": "0s"}], "packets"`, 1)
	for _, doc := range []string{full, `{}`, `{"notify": {"delay": "1s"}}`} {
		cfg, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(cfg.JSON())
		if err != nil || !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s renders %s, which parses to %+v (%v), want %+v", doc, cfg.JSON(), back, err, cfg)
		}
	}
	a, _ := Parse([]byte(`{"crashes": [{"at": "20s", "downtime": "2000ms"}]}`))
	b, _ := Parse([]byte(`{"crashes": [{"downtime": "2s", "at": "20000ms"}]}`))
	if want := `{"crashes":[{"at":"20s","downtime":"2s"}]}`; string(a.JSON()) != want || string(b.JSON()) != want {
		t.Errorf("crash plans render %s and %s", a.JSON(), b.JSON())
	}
}

func TestParseRejections(t *testing.T) {
	tests := []struct {
		name string
		body string
		want string // substring expected in the error
	}{
		{"bad json", `{`, "parse config"},
		{"unknown field", `{"bogus": 1}`, "unknown field"},
		{"blackout missing at", `{"blackouts":[{"link":"wired-fwd","length":"1s"}]}`, "at is required"},
		{"blackout bad duration", `{"blackouts":[{"link":"wired-fwd","at":"never","length":"1s"}]}`, "at"},
		{"blackout unknown link", `{"blackouts":[{"link":"tunnel","at":"1s","length":"1s"}]}`, "unknown link"},
		{"blackout negative length", `{"blackouts":[{"link":"wired-fwd","at":"1s","length":"-1s"}]}`, "positive length"},
		{"blackouts overlap", `{"blackouts":[
			{"link":"wired-fwd","at":"1s","length":"5s"},
			{"link":"wired-fwd","at":"3s","length":"1s"}]}`, "overlap"},
		{"storm loss prob range", `{"storms":[{"link":"wired-fwd","at":"1s","length":"1s","loss_prob":1.5}]}`, "outside [0, 1]"},
		{"crash negative downtime", `{"crashes":[{"at":"1s","downtime":"-2s"}]}`, "positive downtime"},
		{"crash while down", `{"crashes":[{"at":"1s","downtime":"5s"},{"at":"2s","downtime":"1s"}]}`, "already down"},
		{"handoff missing gap", `{"handoff":{"dwell":"1s"}}`, "gap is required"},
		{"handoff zero dwell", `{"handoff":{"dwell":"0s","gap":"100ms"}}`, "positive dwell and gap"},
		{"handoff negative gap", `{"handoff":{"dwell":"1s","gap":"-1ms"}}`, "positive dwell and gap"},
		{"notify prob range", `{"notify":{"loss_prob":-0.1}}`, "outside [0, 1]"},
		{"notify delay prob without delay", `{"notify":{"delay_prob":0.5}}`, "delay is zero"},
		{"packet faults unknown link", `{"packets":[{"link":"tunnel","corrupt_prob":0.1}]}`, "unknown link"},
		{"packet faults duplicate link", `{"packets":[
			{"link":"wired-fwd","corrupt_prob":0.1},
			{"link":"wired-fwd","dup_prob":0.1}]}`, "duplicate packet-fault entry"},
		{"reorder prob without delay", `{"packets":[{"link":"wired-fwd","reorder_prob":0.5}]}`, "reorder delay is zero"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse([]byte(tt.body))
			if err == nil {
				t.Fatalf("invalid plan accepted: %s", tt.body)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	// A packet-fault entry with all-zero probabilities injects nothing.
	if (&Config{Packets: []PacketFaults{{Link: WiredFwd}}}).Enabled() {
		t.Error("no-op packet faults report enabled")
	}
	if !(&Config{Crashes: []Crash{{At: time.Second, Downtime: time.Second}}}).Enabled() {
		t.Error("crash plan reports disabled")
	}
	if !(&Config{Notify: NotifyFaults{LossProb: 0.5}}).Enabled() {
		t.Error("notify plan reports disabled")
	}
	if !(&Config{Handoff: &Handoff{Dwell: time.Second, Gap: time.Second}}).Enabled() {
		t.Error("handoff plan reports disabled")
	}
}

func TestHorizonNilAndProbabilisticOnly(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Horizon() != 0 {
		t.Error("nil config has nonzero horizon")
	}
	probOnly := &Config{Notify: NotifyFaults{LossProb: 0.5}}
	if probOnly.Horizon() != 0 {
		t.Error("probabilistic-only plan has nonzero horizon")
	}
}

func TestOverlayChannelPassThrough(t *testing.T) {
	cfg := &Config{Blackouts: []Blackout{{Link: WirelessDown, At: time.Second, Length: time.Second}}}
	if ch, err := cfg.OverlayChannel(WiredFwd, nil); err != nil || ch != nil {
		t.Errorf("hop without windows: ch=%v err=%v, want nil/nil pass-through", ch, err)
	}
	ch, err := cfg.OverlayChannel(WirelessDown, nil)
	if err != nil || ch == nil {
		t.Fatalf("hop with windows: ch=%v err=%v", ch, err)
	}
	if !cfg.NeedsChannel(WirelessDown) || cfg.NeedsChannel(WirelessUp) {
		t.Error("NeedsChannel does not match the blackout windows")
	}
}

// testLink builds a fast error-free link delivering into got.
func testLink(t *testing.T, s *sim.Simulator, name string, got *[]*packet.Packet) *link.Link {
	t.Helper()
	l, err := link.New(s, link.Config{Name: name, Rate: 10 * units.Mbps}, nil,
		func(p *packet.Packet) { *got = append(*got, p) })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestInjectorStormDropsInsideWindowOnly(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	l := testLink(t, s, WiredFwd, &got)
	cfg := &Config{Storms: []Storm{{Link: WiredFwd, At: 0, Length: time.Hour, LossProb: 1}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)

	l.Send(&packet.Packet{ID: 1, Kind: packet.Data, Payload: 100})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("packet delivered through a loss_prob=1 storm: %v", got)
	}
	if inj.Stats().StormDrops != 1 {
		t.Errorf("StormDrops = %d, want 1", inj.Stats().StormDrops)
	}

	// After the window, deliveries pass untouched.
	s.ScheduleAt(2*time.Hour, func() {
		l.Send(&packet.Packet{ID: 2, Kind: packet.Data, Payload: 100})
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("post-storm delivery missing: %v", got)
	}
}

func TestInjectorPacketCorruptionAndDuplication(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	l := testLink(t, s, WirelessUp, &got)
	cfg := &Config{Packets: []PacketFaults{{Link: WirelessUp, CorruptProb: 1}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)
	l.Send(&packet.Packet{ID: 1, Kind: packet.Data, Payload: 100})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || inj.Stats().CorruptDrops != 1 {
		t.Errorf("corrupt_prob=1: delivered=%d drops=%d", len(got), inj.Stats().CorruptDrops)
	}

	// Duplication: every delivery arrives twice, and the copy is counted
	// as Injected, preserving Delivered+Corrupted <= Sent on the link.
	s2 := sim.New()
	var got2 []*packet.Packet
	l2 := testLink(t, s2, WirelessUp, &got2)
	cfg2 := &Config{Packets: []PacketFaults{{Link: WirelessUp, DupProb: 1}}}
	inj2, err := New(s2, cfg2, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj2.Attach(l2)
	l2.Send(&packet.Packet{ID: 7, Kind: packet.Data, Payload: 100})
	if err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || inj2.Stats().Duplicates != 1 {
		t.Errorf("dup_prob=1: delivered=%d dups=%d", len(got2), inj2.Stats().Duplicates)
	}
	st := l2.Stats()
	if st.Injected != 1 || st.Delivered+st.Corrupted > st.Sent {
		t.Errorf("link counters break conservation: %+v", st)
	}
}

func TestInjectorReorderReleasesLater(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	l := testLink(t, s, WiredFwd, &got)
	cfg := &Config{Packets: []PacketFaults{{Link: WiredFwd, ReorderProb: 1, ReorderDelay: time.Second}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)
	l.Send(&packet.Packet{ID: 1, Kind: packet.Data, Payload: 100})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("held packet never released: %v", got)
	}
	if s.Now() < time.Second {
		t.Errorf("release fired at %v, before the 1s reorder delay", s.Now())
	}
	if inj.Stats().Reorders != 1 {
		t.Errorf("Reorders = %d, want 1", inj.Stats().Reorders)
	}
}

func TestInjectorNotifyFaults(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	l := testLink(t, s, WiredRev, &got)
	cfg := &Config{Notify: NotifyFaults{LossProb: 1}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)

	// Notifications are dropped; ordinary acks on the same hop pass.
	l.Send(&packet.Packet{ID: 1, Kind: packet.EBSN})
	l.Send(&packet.Packet{ID: 2, Kind: packet.SourceQuench})
	l.Send(&packet.Packet{ID: 3, Kind: packet.Ack, AckNo: 100})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != packet.Ack {
		t.Errorf("deliveries = %v, want only the ACK", got)
	}
	if inj.Stats().NotifyDropped != 2 {
		t.Errorf("NotifyDropped = %d, want 2", inj.Stats().NotifyDropped)
	}
}

func TestInjectorNotifyDelay(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	l := testLink(t, s, WiredRev, &got)
	cfg := &Config{Notify: NotifyFaults{DelayProb: 1, Delay: 2 * time.Second}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)
	l.Send(&packet.Packet{ID: 1, Kind: packet.EBSN})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delayed notification never released: %v", got)
	}
	if s.Now() < 2*time.Second {
		t.Errorf("release fired at %v, before the 2s delay", s.Now())
	}
	if inj.Stats().NotifyDelayed != 1 {
		t.Errorf("NotifyDelayed = %d, want 1", inj.Stats().NotifyDelayed)
	}
}

// fakeStation records crash/restart calls.
type fakeStation struct {
	crashes  int
	restarts int
}

func (f *fakeStation) Crash() int { f.crashes++; return 3 }
func (f *fakeStation) Restart()   { f.restarts++ }

func TestScheduleCrashes(t *testing.T) {
	s := sim.New()
	cfg := &Config{Crashes: []Crash{
		{At: time.Second, Downtime: time.Second},
		{At: 10 * time.Second, Downtime: 2 * time.Second},
	}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeStation{}
	inj.ScheduleCrashes(fs)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fs.crashes != 2 || fs.restarts != 2 {
		t.Errorf("crashes/restarts = %d/%d, want 2/2", fs.crashes, fs.restarts)
	}
	st := inj.Stats()
	if st.Crashes != 2 || st.CrashLostPackets != 6 {
		t.Errorf("stats = %+v, want 2 crashes, 6 lost packets", st)
	}
}

func (f *fakeStation) Flush() int { return 2 }

// TestScheduleHandoffs: the cycle is dwell, gap, dwell, ... from time
// zero; the station is flushed at each detach, the duplicate ACKs go out
// at each reattach, and deliveries into the cell are lost only inside a
// gap.
func TestScheduleHandoffs(t *testing.T) {
	s := sim.New()
	var got []*packet.Packet
	down := testLink(t, s, WirelessDown, &got)
	cfg := &Config{Handoff: &Handoff{Dwell: time.Second, Gap: 100 * time.Millisecond, DupAcks: true}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(down)
	var nudges []time.Duration
	inj.ScheduleHandoffs(&fakeStation{}, func() { nudges = append(nudges, s.Now()) })
	for i, at := range []time.Duration{500 * time.Millisecond, 1050 * time.Millisecond, 1500 * time.Millisecond} {
		id := uint64(i + 1)
		s.ScheduleAt(at, func() { down.Send(&packet.Packet{ID: id, Kind: packet.Data, Payload: 100}) })
	}
	if err := s.Run(3500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{1100 * time.Millisecond, 2200 * time.Millisecond, 3300 * time.Millisecond}; !slices.Equal(nudges, want) {
		t.Errorf("duplicate ACKs at %v, want %v", nudges, want)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("delivered %v, want packets 1 and 3 (2 arrives inside the first gap)", got)
	}
	if st := inj.Stats(); st.Handoffs != 3 || st.HandoffDrops != 3*2+1 {
		t.Errorf("stats = %+v, want 3 handoffs and 7 drops (2 flushed per detach, 1 in a gap)", st)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(nil, &Config{}, nil); err == nil {
		t.Error("nil simulator accepted")
	}
	enabled := &Config{Notify: NotifyFaults{LossProb: 1}}
	if _, err := New(sim.New(), enabled, nil); err == nil {
		t.Error("enabled plan with nil RNG accepted")
	}
	invalid := &Config{Blackouts: []Blackout{{Link: "tunnel", At: 0, Length: time.Second}}}
	if _, err := New(sim.New(), invalid, sim.NewRNG(1)); err == nil {
		t.Error("invalid plan accepted")
	}
}

// FuzzChaosParse throws arbitrary bytes at the fault-plan parser: it must
// never panic, and any plan it accepts must pass Validate (Parse already
// validates, so acceptance of an invalid plan is a parser bug).
func FuzzChaosParse(f *testing.F) {
	seeds := []string{
		`{}`,
		fullPlanJSON,
		`{"blackouts":[{"link":"wired-rev","at":"0s","length":"1ms"}]}`,
		`{"crashes":[{"at":"1s","downtime":"500ms"},{"at":"5s","downtime":"1s"}]}`,
		`{"notify":{"loss_prob":1}}`,
		`{"handoff":{"dwell":"1s","gap":"100ms","dup_acks":true}}`,
		`{"packets":[{"link":"wireless-down","dup_prob":0.5}]}`,
		`{"event_storms":[{"at":"5s","count":100,"spacing":"1ms"}]}`,
		`{"event_storms":[{"at":"1s","count":-2}]}`,
		`{"blackouts":[{"link":"nope","at":"1s","length":"1s"}]}`,
		`{"storms":[{"link":"wired-fwd","at":"-1s","length":"1s","loss_prob":2}]}`,
		`{"bogus":true}`,
		`{`,
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Errorf("Parse accepted a plan that fails Validate: %v\ninput: %s", verr, data)
		}
	})
}

func TestParseEventStorms(t *testing.T) {
	cfg, err := Parse([]byte(`{"event_storms":[
		{"at": "5s", "count": 1000, "spacing": "1ms"},
		{"at": "2s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled() {
		t.Error("event-storm plan reports disabled")
	}
	if len(cfg.EventStorms) != 2 {
		t.Fatalf("event storms = %+v", cfg.EventStorms)
	}
	if es := cfg.EventStorms[0]; es.At != 5*time.Second || es.Count != 1000 || es.Spacing != time.Millisecond {
		t.Errorf("bounded storm = %+v", es)
	}
	if es := cfg.EventStorms[1]; es.At != 2*time.Second || es.Count != 0 || es.Spacing != 0 {
		t.Errorf("unbounded livelock storm = %+v", es)
	}
	// Horizon covers the bounded storm's last event; the unbounded one
	// contributes only its start.
	if got, want := cfg.Horizon(), 5*time.Second+999*time.Millisecond; got != want {
		t.Errorf("Horizon() = %v, want %v", got, want)
	}

	for _, bad := range []struct{ name, body, want string }{
		{"missing at", `{"event_storms":[{"count":5}]}`, "at is required"},
		{"negative count", `{"event_storms":[{"at":"1s","count":-1}]}`, "negative count"},
		{"negative spacing", `{"event_storms":[{"at":"1s","spacing":"-1ms"}]}`, "negative spacing"},
	} {
		if _, err := Parse([]byte(bad.body)); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want mention of %q", bad.name, err, bad.want)
		}
	}
}

// TestEventStormLivelockCaughtByBudget: an unbounded zero-spacing storm
// is a same-instant livelock — the virtual clock freezes at the storm's
// start, so only the event budget can end the run.
func TestEventStormLivelockCaughtByBudget(t *testing.T) {
	s := sim.New()
	cfg := &Config{EventStorms: []EventStorm{{At: time.Second}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleEventStorms()
	s.SetBudget(sim.Budget{MaxEvents: 10_000})

	err = s.RunAll()
	be, ok := err.(*sim.BudgetError)
	if !ok {
		t.Fatalf("RunAll returned %v, want *sim.BudgetError", err)
	}
	if be.Kind != sim.BudgetEvents {
		t.Fatalf("kind = %q, want events", be.Kind)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock at %v, want frozen at the storm start (1s)", s.Now())
	}
	if inj.Stats().EventStormEvents == 0 {
		t.Fatal("no storm events counted")
	}
}

// TestEventStormBoundedIsBenign: a bounded storm fires exactly Count
// events and the run drains normally — benign chaos must not need a
// budget to finish.
func TestEventStormBoundedIsBenign(t *testing.T) {
	s := sim.New()
	cfg := &Config{EventStorms: []EventStorm{{At: time.Second, Count: 500, Spacing: time.Millisecond}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleEventStorms()
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got := inj.Stats().EventStormEvents; got != 500 {
		t.Fatalf("storm events = %d, want 500", got)
	}
	if want := time.Second + 499*time.Millisecond; s.Now() != want {
		t.Fatalf("clock at %v, want %v", s.Now(), want)
	}
}

// TestInjectorOwnsWhatItHolds: a packet held back by a reorder or delay
// fault is kept alive by a reference of the injector's own — the link
// releases its reference to a consumed delivery — and arrives intact; a
// duplicate is a by-value copy no pool owns; and the packets still held
// when a run stops are given up by ReleaseAll.
func TestInjectorOwnsWhatItHolds(t *testing.T) {
	s := sim.New()
	pool := &packet.Pool{}
	ids := packet.NewIDGen(pool)
	var got []*packet.Packet
	l := testLink(t, s, WiredFwd, &got)
	cfg := &Config{Packets: []PacketFaults{{Link: WiredFwd, DupProb: 1, ReorderProb: 1, ReorderDelay: time.Second}}}
	inj, err := New(s, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(l)
	send := func(seq int64) {
		p := ids.New(packet.Data)
		p.Seq, p.Payload = seq, 100
		l.Send(p)
	}
	send(1000)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The copy arrives first (same instant as the interception), the held
	// original a second later; both carry the data.
	if len(got) != 2 || got[0].Seq != 1000 || got[1].Seq != 1000 || got[0] == got[1] {
		t.Fatalf("deliveries = %v", got)
	}
	if live := pool.Stats().LiveAtEnd; live != 1 {
		t.Fatalf("%d pooled packets live, want the held original only", live)
	}
	got[0].Release() // the copy: no pool owns it
	got[1].Release() // the original
	if st := pool.Stats(); st.LiveAtEnd != 0 || pool.Fault() != nil {
		t.Fatalf("after the receiver released both: %+v, fault %v", st, pool.Fault())
	}

	// Stop the run while a packet is still being held back.
	send(2000)
	for inj.Stats().Reorders < 2 {
		if ok, err := s.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	}
	if live := pool.Stats().LiveAtEnd; live != 1 || len(inj.held) != 1 {
		t.Fatalf("mid-hold: %d live, injector holds %d", live, len(inj.held))
	}
	inj.ReleaseAll()
	if st := pool.Stats(); st.LiveAtEnd != 0 || pool.Fault() != nil {
		t.Errorf("after ReleaseAll: %+v, fault %v", st, pool.Fault())
	}
}
