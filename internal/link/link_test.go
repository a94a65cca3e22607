package link

import (
	"slices"
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// wiredWAN is the paper's 56 kbps wired WAN link.
func wiredWAN(delay time.Duration) Config {
	return Config{Name: "wired", Rate: 56 * units.Kbps, Delay: delay, QueueLimit: 50}
}

// wirelessWAN is the paper's wide-area wireless link: 19.2 kbps raw, 1.5x
// framing/FEC overhead (12.8 kbps effective), with the given channel.
func wirelessWAN(delay time.Duration, ch errmodel.Channel) Config {
	return Config{Name: "wireless", Rate: BitRateWirelessWAN, Delay: delay, Overhead: 1.5, Channel: ch}
}

// perfect is an error-free channel.
type perfect struct{}

func (perfect) StateAt(time.Duration) errmodel.State { return errmodel.Good }

func (perfect) ExpectedBitErrors(time.Duration, time.Duration, int64) float64 { return 0 }

func mkData(id uint64, payload units.ByteSize) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.Data, Payload: payload}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	deliver := func(*packet.Packet) {}
	tests := []struct {
		name    string
		cfg     Config
		rng     *sim.RNG
		deliver func(*packet.Packet)
		wantErr bool
	}{
		{"valid wired", wiredWAN(50 * time.Millisecond), nil, deliver, false},
		{"zero rate", Config{}, nil, deliver, true},
		{"negative delay", Config{Rate: units.Kbps, Delay: -1}, nil, deliver, true},
		{"negative overhead", Config{Rate: units.Kbps, Overhead: -1}, nil, deliver, true},
		{"nil deliver", wiredWAN(0), nil, nil, true},
		{"channel without rng", wirelessWAN(0, perfect{}), nil, deliver, true},
		{"channel with rng", wirelessWAN(0, perfect{}), sim.NewRNG(1), deliver, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(s, tt.cfg, tt.rng, tt.deliver)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeliveryTiming(t *testing.T) {
	s := sim.New()
	var deliveredAt time.Duration
	cfg := Config{Name: "t", Rate: 8 * units.Kbps, Delay: 100 * time.Millisecond}
	l, err := New(s, cfg, nil, func(*packet.Packet) { deliveredAt = s.Now() })
	if err != nil {
		t.Fatal(err)
	}
	// 1024-byte packet (payload 984 + 40 header) at 8 kbps = 1.024 s + 0.1 s.
	l.Send(mkData(1, 984))
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := 1024*time.Millisecond + 100*time.Millisecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestSerializationFIFO(t *testing.T) {
	s := sim.New()
	var ids []uint64
	var times []time.Duration
	cfg := Config{Rate: 8 * units.Kbps, Delay: 0}
	l, err := New(s, cfg, nil, func(p *packet.Packet) {
		ids = append(ids, p.ID)
		times = append(times, s.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three packets sent back to back serialize one after another.
	for i := uint64(1); i <= 3; i++ {
		l.Send(mkData(i, 984)) // 1.024s each
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("delivered %d, want 3", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Errorf("order %v, want 1,2,3", ids)
		}
	}
	unit := 1024 * time.Millisecond
	for i, at := range times {
		want := time.Duration(i+1) * unit
		if at != want {
			t.Errorf("packet %d delivered at %v, want %v", i+1, at, want)
		}
	}
}

func TestOverheadStretchesTxTime(t *testing.T) {
	s := sim.New()
	cfg := wirelessWAN(0, perfect{})
	l, err := New(s, cfg, sim.NewRNG(1), func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	// 128 network bytes -> 192 on-air bytes at 19.2 kbps = 80 ms.
	got := l.TxTime(128)
	want := 80 * time.Millisecond
	if diff := got - want; diff > time.Millisecond || diff < -time.Millisecond {
		t.Errorf("TxTime(128) = %v, want %v", got, want)
	}
}

func TestEffectiveWANRateIs12_8Kbps(t *testing.T) {
	// The paper's claim: 19.2 kbps raw with 1.5x overhead = 12.8 kbps
	// effective. Send 100 KB worth of 128-byte units and check elapsed.
	s := sim.New()
	var last time.Duration
	cfg := wirelessWAN(0, perfect{})
	l, err := New(s, cfg, sim.NewRNG(1), func(*packet.Packet) { last = s.Now() })
	if err != nil {
		t.Fatal(err)
	}
	const n = 800 // 800 * 128B = 100 KB
	for i := 0; i < n; i++ {
		l.Send(&packet.Packet{ID: uint64(i), Kind: packet.Fragment, Payload: 128})
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	kbps := units.ThroughputKbps(100*units.KB, last)
	if kbps < 12.7 || kbps > 12.9 {
		t.Errorf("effective rate = %.2f kbps, want 12.8", kbps)
	}
}

func TestQueueDropTail(t *testing.T) {
	s := sim.New()
	cfg := Config{Rate: units.Kbps, QueueLimit: 2}
	var delivered []uint64
	l, err := New(s, cfg, nil, func(p *packet.Packet) { delivered = append(delivered, p.ID) })
	if err != nil {
		t.Fatal(err)
	}
	// First send goes straight to the transmitter; next two queue; the
	// fourth and fifth are tail-dropped.
	for i := uint64(1); i <= 5; i++ {
		l.Send(mkData(i, 10))
	}
	if got := l.Stats().QueueDrops; got != 2 {
		t.Errorf("QueueDrops = %d, want 2", got)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(delivered, []uint64{1, 2, 3}) {
		t.Errorf("delivered IDs = %v, want [1 2 3]: the tail is dropped", delivered)
	}
}

func TestCorruptionInBadState(t *testing.T) {
	// Deterministic channel, transmission entirely inside the bad period:
	// a 128-byte fragment has 1536 on-air bits, mean errors 15.36,
	// P(corrupt) ~ 1 - 2e-7. All 50 sends during the bad state should be
	// corrupted.
	s := sim.New()
	cfg := errmodel.PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	ch, err := errmodel.NewMarkov(cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l, err := New(s, wirelessWAN(0, ch), sim.NewRNG(3), func(*packet.Packet) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(10500*time.Millisecond, func() {
		for i := 0; i < 40; i++ { // 40 * 80ms = 3.2s, inside 10s-14s bad period
			l.Send(&packet.Packet{ID: uint64(i), Kind: packet.Fragment, Payload: 128})
		}
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("%d fragments survived the bad state (p ~ 1e-6 each)", delivered)
	}
	if got := l.Stats().Corrupted; got != 40 {
		t.Errorf("Corrupted = %d, want 40", got)
	}
}

func TestMostlyCleanInGoodState(t *testing.T) {
	// Good-state BER 1e-6 on 1536 on-air bits: P(corrupt) ~ 0.0015.
	// 100 sends should essentially all survive.
	s := sim.New()
	cfg := errmodel.PaperWAN(time.Second)
	cfg.Deterministic = true
	cfg.MeanGood = time.Hour // never leave good state
	ch, err := errmodel.NewMarkov(cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l, err := New(s, wirelessWAN(0, ch), sim.NewRNG(3), func(*packet.Packet) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		l.Send(&packet.Packet{ID: uint64(i), Kind: packet.Fragment, Payload: 128})
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered < 98 {
		t.Errorf("only %d/100 delivered in good state", delivered)
	}
}

func TestStatsCounters(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Rate: units.Mbps}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	l.Send(mkData(1, 60)) // 100 bytes on wire
	l.Send(mkData(2, 60))
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Corrupted != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesSent != 200 || st.BytesDelivered != 200 {
		t.Errorf("byte stats = %+v", st)
	}
}

func TestBusyAndQueueLen(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Rate: units.Kbps}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if l.Busy() {
		t.Error("new link busy")
	}
	l.Send(mkData(1, 85)) // 1s tx
	l.Send(mkData(2, 85))
	if !l.Busy() {
		t.Error("link not busy after send")
	}
	if l.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1", l.QueueLen())
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if l.Busy() || l.QueueLen() != 0 {
		t.Error("link not idle after drain")
	}
}

func TestPresets(t *testing.T) {
	if WiredLAN(0).Rate != 10*units.Mbps {
		t.Error("WiredLAN rate")
	}
	if WirelessLAN(0, nil).Rate != 2*units.Mbps {
		t.Error("WirelessLAN rate")
	}
	if WirelessLAN(0, nil).Overhead != 0 { // 0 means 1.0 at construction
		t.Error("WirelessLAN overhead should default")
	}
}

func TestNameAndDelayAccessors(t *testing.T) {
	s := sim.New()
	l, err := New(s, Config{Name: "up", Rate: units.Kbps, Delay: 7 * time.Millisecond}, nil, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "up" {
		t.Error("Name")
	}
	if l.Delay() != 7*time.Millisecond {
		t.Error("Delay")
	}
}
