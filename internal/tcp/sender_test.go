package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// loop wires a Sender and Sink back to back over fixed-delay pipes with an
// optional per-packet drop predicate, giving TCP unit tests a controlled
// network.
type loop struct {
	s     *sim.Simulator
	snd   *Sender
	sink  *Sink
	delay time.Duration
	t     *testing.T
	// dropData decides whether a data segment is lost in transit;
	// dropAck likewise for ACKs. Nil means deliver everything.
	dropData func(p *packet.Packet) bool
	dropAck  func(p *packet.Packet) bool
}

func newLoop(t *testing.T, cfg Config, delay time.Duration) *loop {
	t.Helper()
	l := &loop{s: sim.New(), delay: delay, t: t}
	ids := &packet.IDGen{}
	sink, err := NewSink(l.s, cfg.Window, ids, func(p *packet.Packet) {
		if l.dropAck != nil && l.dropAck(p) {
			return
		}
		l.s.Schedule(l.delay, func() { l.snd.Receive(p) })
	})
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	l.sink = sink
	snd, err := NewSender(l.s, cfg, ids, func(p *packet.Packet) {
		if l.dropData != nil && l.dropData(p) {
			return
		}
		l.s.Schedule(l.delay, func() { l.sink.Receive(p) })
	})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	l.snd = snd
	return l
}

func wanConfig() Config {
	return Config{
		MSS:    536,
		Window: 4 * units.KB,
		Total:  20 * units.KB,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", wanConfig(), false},
		{"zero MSS", Config{Window: units.KB, Total: units.KB}, true},
		{"window below MSS", Config{MSS: 536, Window: 100, Total: units.KB}, true},
		{"zero total", Config{MSS: 536, Window: units.KB}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestConstructorRejections(t *testing.T) {
	s := sim.New()
	ids := &packet.IDGen{}
	if _, err := NewSender(s, Config{}, ids, func(*packet.Packet) {}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSender(s, wanConfig(), ids, nil); err == nil {
		t.Error("nil out accepted")
	}
	if _, err := NewSink(s, 0, ids, func(*packet.Packet) {}); err == nil {
		t.Error("zero window sink accepted")
	}
	if _, err := NewSink(s, units.KB, ids, nil); err == nil {
		t.Error("nil sink out accepted")
	}
}

func TestCleanTransferCompletes(t *testing.T) {
	l := newLoop(t, wanConfig(), 50*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if got := l.sink.Delivered(); got != 20*units.KB {
		t.Errorf("delivered %d bytes, want %d", got, 20*units.KB)
	}
	st := l.snd.Stats()
	if st.RetransSegments != 0 || st.Timeouts != 0 || st.FastRetransmits != 0 {
		t.Errorf("clean path saw losses: %+v", st)
	}
	// Goodput invariant: non-retransmitted bytes = total + header per
	// original segment.
	segs := (20*units.KB + 535) / 536
	want := 20*units.KB + segs*packet.HeaderSize
	if got := st.BytesSent - st.RetransBytes; got != want {
		t.Errorf("fresh bytes = %d, want %d", got, want)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	cfg := wanConfig()
	cfg.Window = 64 * units.KB
	cfg.Total = 64 * units.KB
	l := newLoop(t, cfg, 100*time.Millisecond)
	var sends []time.Duration
	l.snd.SetStateHook(func(e *trace.Event) {
		if e.Kind == trace.Send || e.Kind == trace.Retransmit {
			sends = append(sends, l.s.Now())
		}
	})
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Group sends by RTT rounds (round-trip is 200ms; all sends within a
	// round share a burst window of < 200ms here since pipes are instant).
	rounds := map[int]int{}
	for _, at := range sends {
		rounds[int(at/(200*time.Millisecond))]++
	}
	// Slow start: 1, 2, 4, 8 segments in the first four rounds.
	for i, want := range []int{1, 2, 4, 8} {
		if rounds[i] != want {
			t.Errorf("round %d sent %d segments, want %d", i, rounds[i], want)
		}
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 30 * units.KB
	l := newLoop(t, cfg, 50*time.Millisecond)
	dropped := false
	l.dropData = func(p *packet.Packet) bool {
		// Drop the first transmission of the segment at 5*536.
		if !dropped && p.Seq == 5*536 && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("transfer did not complete")
	}
	st := l.snd.Stats()
	if st.FastRetransmits != 1 {
		t.Errorf("FastRetransmits = %d, want 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (dupacks should beat the timer)", st.Timeouts)
	}
	if l.sink.Delivered() != cfg.Total {
		t.Errorf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
	}
}

func TestFastRetransmitHalvesSsthresh(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 30 * units.KB
	l := newLoop(t, cfg, 50*time.Millisecond)
	dropped := false
	var cwndAtLoss, ssthreshAfter units.ByteSize
	l.dropData = func(p *packet.Packet) bool {
		if !dropped && p.Seq == 6*536 && !p.Retransmit {
			dropped = true
			cwndAtLoss = l.snd.Cwnd()
			return true
		}
		return false
	}
	l.snd.SetStateHook(func(e *trace.Event) {
		if e.Kind == trace.FastRetx {
			ssthreshAfter = units.ByteSize(e.Ssthresh)
		}
	})
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if ssthreshAfter == 0 {
		t.Fatal("fast retransmit never fired")
	}
	// ssthresh = max(flight/2, 2*MSS) where flight <= min(cwnd@loss, wnd).
	if ssthreshAfter > cwndAtLoss && ssthreshAfter != 2*536 {
		t.Errorf("ssthresh %d exceeds cwnd at loss %d", ssthreshAfter, cwndAtLoss)
	}
	if ssthreshAfter < 2*536 {
		t.Errorf("ssthresh %d below the two-segment floor", ssthreshAfter)
	}
	// Tahoe: cwnd collapsed to one segment at the retransmit.
}

func TestTimeoutAndBackoff(t *testing.T) {
	cfg := wanConfig()
	l := newLoop(t, cfg, 50*time.Millisecond)
	blackout := true
	l.dropData = func(*packet.Packet) bool { return blackout }
	var timeoutTimes []time.Duration
	l.snd.SetStateHook(func(e *trace.Event) {
		if e.Kind != trace.Timeout {
			return
		}
		timeoutTimes = append(timeoutTimes, l.s.Now())
		if len(timeoutTimes) == 3 {
			blackout = false // heal the path after the third timeout
		}
	})
	l.snd.Start()
	if err := l.s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("transfer did not complete after blackout healed")
	}
	if len(timeoutTimes) < 3 {
		t.Fatalf("saw %d timeouts, want >= 3", len(timeoutTimes))
	}
	// Karn backoff: gaps between consecutive timeouts double (1s, 2s, 4s).
	gap1 := timeoutTimes[1] - timeoutTimes[0]
	gap2 := timeoutTimes[2] - timeoutTimes[1]
	if gap2 != 2*gap1 {
		t.Errorf("timeout gaps %v then %v, want doubling", gap1, gap2)
	}
	st := l.snd.Stats()
	if st.RetransSegments == 0 {
		t.Error("no retransmissions recorded across timeouts")
	}
}

func TestTimeoutCollapsesCwndToOneSegment(t *testing.T) {
	cfg := wanConfig()
	l := newLoop(t, cfg, 50*time.Millisecond)
	drop := true
	l.dropData = func(*packet.Packet) bool { return drop }
	fired := false
	var cwndAfter units.ByteSize
	l.snd.SetStateHook(func(e *trace.Event) {
		switch {
		case e.Kind == trace.Retransmit && cwndAfter == 0:
			cwndAfter = l.snd.Cwnd() // observed right as the timeout retransmits
		case e.Kind == trace.Timeout:
			fired = true
			drop = false
		}
	})
	l.snd.Start()
	if err := l.s.Run(InitialRTO + time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer did not fire")
	}
	if cwndAfter != 536 {
		t.Errorf("cwnd after timeout = %d, want one MSS", cwndAfter)
	}
}

func TestKarnNoSampleFromRetransmission(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 2 * 536 // two segments
	l := newLoop(t, cfg, 200*time.Millisecond)
	first := true
	l.dropData = func(p *packet.Packet) bool {
		// Lose the entire first window once, forcing a timeout-driven
		// retransmission of segment 0.
		if first && !p.Retransmit {
			return true
		}
		return false
	}
	l.snd.SetStateHook(func(e *trace.Event) {
		if e.Kind == trace.Timeout {
			first = false
		}
	})
	l.snd.Start()
	if err := l.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("did not complete")
	}
	// The ACK of the retransmitted segment 0 must not have produced an
	// RTT sample; only segment 1 (fresh, sent after recovery began) may.
	if got := l.snd.st.rtt.Samples(); got > 1 {
		t.Errorf("Samples = %d; a retransmitted segment was sampled", got)
	}
}

func TestEBSNPreventsTimeout(t *testing.T) {
	cfg := wanConfig()
	l := newLoop(t, cfg, 50*time.Millisecond)
	l.dropData = func(*packet.Packet) bool { return true } // permanent blackout
	l.snd.Start()
	// Deliver an EBSN every 800ms (before each 3s timeout would fire).
	var pump func()
	ebsnCount := 0
	pump = func() {
		if ebsnCount < 10 {
			ebsnCount++
			l.snd.Receive(&packet.Packet{Kind: packet.EBSN})
			l.s.Schedule(800*time.Millisecond, pump)
		}
	}
	l.s.Schedule(800*time.Millisecond, pump)
	if err := l.s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := l.snd.Stats()
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d with EBSN pump, want 0", st.Timeouts)
	}
	if st.EBSNResets != 10 {
		t.Errorf("EBSNResets = %d, want 10", st.EBSNResets)
	}
	// After the pump stops (last EBSN at 8.0s, timer re-armed to 11.0s),
	// the timer finally fires once; its backed-off successor lands beyond
	// the horizon.
	if err := l.s.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.snd.Stats().Timeouts; got != 1 {
		t.Errorf("Timeouts after pump stopped = %d, want 1", got)
	}
}

func TestEBSNDoesNotTouchEstimatesOrCwnd(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 500 * units.KB // still in flight when the EBSN lands
	l := newLoop(t, cfg, 50*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(2 * time.Second); err != nil { // a few RTTs
		t.Fatal(err)
	}
	srtt := l.snd.st.rtt.SRTT()
	cwnd := l.snd.Cwnd()
	l.snd.Receive(&packet.Packet{Kind: packet.EBSN})
	if l.snd.st.rtt.SRTT() != srtt {
		t.Error("EBSN changed SRTT")
	}
	if l.snd.Cwnd() != cwnd {
		t.Error("EBSN changed cwnd")
	}
}

func TestEBSNIgnoredWhenIdle(t *testing.T) {
	cfg := wanConfig()
	l := newLoop(t, cfg, 10*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("did not complete")
	}
	l.snd.Receive(&packet.Packet{Kind: packet.EBSN})
	if l.s.Pending() != 0 {
		t.Error("EBSN after completion armed a timer")
	}
}

func TestQuenchCollapsesCwndOnly(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 500 * units.KB // long enough to still be running at 2s
	l := newLoop(t, cfg, 50*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadlineBefore := l.snd.timer.Deadline()
	l.snd.Receive(&packet.Packet{Kind: packet.SourceQuench})
	if got := l.snd.Cwnd(); got != 536 {
		t.Errorf("cwnd after quench = %d, want one MSS", got)
	}
	if l.snd.timer.Deadline() != deadlineBefore {
		t.Error("quench moved the retransmission timer (it must not)")
	}
	if l.snd.Stats().Quenches != 1 {
		t.Errorf("Quenches = %d", l.snd.Stats().Quenches)
	}
	// Transfer still completes afterwards.
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Error("transfer did not complete after quench")
	}
}

func TestRenoFastRecoveryKeepsHalfWindow(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 40 * units.KB
	cfg.Variant = Reno
	l := newLoop(t, cfg, 50*time.Millisecond)
	dropped := false
	l.dropData = func(p *packet.Packet) bool {
		if !dropped && p.Seq == 6*536 && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	l.snd.Start()
	if err := l.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("Reno transfer did not complete")
	}
	st := l.snd.Stats()
	if st.FastRetransmits != 1 {
		t.Errorf("FastRetransmits = %d, want 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0", st.Timeouts)
	}
	// Reno's single-loss recovery retransmits exactly one segment; Tahoe's
	// go-back-N typically resends more.
	if st.RetransSegments != 1 {
		t.Errorf("RetransSegments = %d, want exactly 1 for Reno", st.RetransSegments)
	}
}

func TestVariantString(t *testing.T) {
	if Tahoe.String() != "tahoe" || Reno.String() != "reno" {
		t.Error("variant names")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should render")
	}
}

func TestFinalPartialSegment(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 5*536 + 123 // last segment is 123 bytes
	l := newLoop(t, cfg, 20*time.Millisecond)
	var lastPayload units.ByteSize
	l.snd.SetStateHook(func(e *trace.Event) {
		if e.Kind == trace.Send || e.Kind == trace.Retransmit {
			lastPayload = units.ByteSize(e.Payload)
		}
	})
	l.snd.Start()
	if err := l.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("did not complete")
	}
	if lastPayload != 123 {
		t.Errorf("last segment payload = %d, want 123", lastPayload)
	}
	if l.sink.Delivered() != cfg.Total {
		t.Errorf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
	}
}

func TestStartIdempotent(t *testing.T) {
	l := newLoop(t, wanConfig(), 20*time.Millisecond)
	l.snd.Start()
	sent := l.snd.Stats().SegmentsSent
	l.snd.Start()
	if l.snd.Stats().SegmentsSent != sent {
		t.Error("second Start sent more data")
	}
}

// Property: under any bounded random loss pattern the transfer completes,
// the sink receives exactly Total in-order bytes, and the fresh-bytes
// accounting invariant holds.
func TestPropertyLossyTransferInvariants(t *testing.T) {
	f := func(seed int64, dropPctRaw uint8) bool {
		dropPct := float64(dropPctRaw%60) / 100 // up to 59% loss
		rng := sim.NewRNG(seed)
		cfg := Config{
			MSS:    536,
			Window: 4 * units.KB,
			Total:  10 * units.KB,
		}
		l := newLoop(t, cfg, 20*time.Millisecond)
		l.dropData = func(*packet.Packet) bool { return rng.Bernoulli(dropPct) }
		l.dropAck = func(*packet.Packet) bool { return rng.Bernoulli(dropPct) }
		l.snd.Start()
		if err := l.s.Run(4 * time.Hour); err != nil {
			return false
		}
		if !l.snd.Done() {
			return false
		}
		if l.sink.Delivered() != cfg.Total {
			return false
		}
		st := l.snd.Stats()
		segs := (cfg.Total + cfg.MSS - 1) / cfg.MSS
		want := cfg.Total + segs*packet.HeaderSize
		return st.BytesSent-st.RetransBytes == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
