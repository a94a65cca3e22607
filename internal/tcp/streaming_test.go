package tcp

import (
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/units"
)

func TestStreamingSenderWaitsForData(t *testing.T) {
	cfg := wanConfig()
	cfg.Streaming = true
	cfg.Total = 5 * 536
	l := newLoop(t, cfg, 20*time.Millisecond)
	l.snd.Start()
	if err := l.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.snd.Stats().SegmentsSent; got != 0 {
		t.Fatalf("streaming sender sent %d segments with nothing available", got)
	}
	// Grant two segments.
	l.snd.MakeAvailable(2 * 536)
	if err := l.s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.sink.Delivered(); got != 2*536 {
		t.Fatalf("delivered %d, want %d", got, 2*536)
	}
	// Grant the rest; the transfer completes.
	l.snd.MakeAvailable(3 * 536)
	if err := l.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("streaming transfer did not complete")
	}
	if l.sink.Delivered() != cfg.Total {
		t.Errorf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
	}
}

func TestStreamingPartialWriteFlushedImmediately(t *testing.T) {
	// PSH semantics: an application write smaller than the MSS goes out
	// right away (an interactive write or page tail must not wait for
	// bytes that may never come).
	cfg := wanConfig()
	cfg.Streaming = true
	cfg.Total = 2 * 536
	l := newLoop(t, cfg, 10*time.Millisecond)
	l.snd.Start()
	l.snd.MakeAvailable(300) // less than one MSS
	if err := l.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.sink.Delivered(); got != 300 {
		t.Fatalf("delivered %d, want the 300-byte write flushed", got)
	}
	l.snd.MakeAvailable(236)
	if err := l.s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.sink.Delivered(); got != 536 {
		t.Fatalf("delivered %d, want 536", got)
	}
}

func TestSinkPartialOverlapSuffixAccepted(t *testing.T) {
	// A retransmission whose boundaries merged two earlier writes must
	// not lose the new suffix.
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(0, 200)) // rcvNxt = 200
	h.sink.Receive(data(0, 500)) // overlaps [0,200), new suffix [200,500)
	if got := h.sink.Delivered(); got != 500 {
		t.Fatalf("delivered %d, want 500", got)
	}
	if got := h.sink.RcvNxt(); got != 500 {
		t.Errorf("RcvNxt = %d", got)
	}
	// The ack for the merged arrival is cumulative.
	if last := h.acks[len(h.acks)-1]; last.AckNo != 500 {
		t.Errorf("ack = %d, want 500", last.AckNo)
	}
}

func TestStreamingFinalShortSegment(t *testing.T) {
	cfg := wanConfig()
	cfg.Streaming = true
	cfg.Total = 536 + 100
	l := newLoop(t, cfg, 10*time.Millisecond)
	l.snd.Start()
	l.snd.MakeAvailable(cfg.Total)
	if err := l.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("did not complete")
	}
	if l.sink.Delivered() != cfg.Total {
		t.Errorf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
	}
}

func TestMakeAvailableClampsAndIgnoresJunk(t *testing.T) {
	cfg := wanConfig()
	cfg.Streaming = true
	l := newLoop(t, cfg, 10*time.Millisecond)
	l.snd.MakeAvailable(-5)
	if units.ByteSize(l.snd.st.avail) != 0 {
		t.Error("negative grant changed availability")
	}
	l.snd.MakeAvailable(cfg.Total * 10)
	if units.ByteSize(l.snd.st.avail) != cfg.Total {
		t.Errorf("Available = %d, want clamp to Total %d", units.ByteSize(l.snd.st.avail), cfg.Total)
	}
}

func TestNonStreamingFullyAvailable(t *testing.T) {
	l := newLoop(t, wanConfig(), 10*time.Millisecond)
	if units.ByteSize(l.snd.st.avail) != wanConfig().Total {
		t.Error("non-streaming sender should start fully available")
	}
}

func TestNewRenoRepairsMultiLossWindowWithoutTimeout(t *testing.T) {
	cfg := wanConfig()
	cfg.Total = 60 * units.KB
	cfg.Variant = NewReno
	l := newLoop(t, cfg, 50*time.Millisecond)
	// Drop two distinct segments from the same window once each.
	dropped := map[int64]bool{}
	l.dropData = func(p *packet.Packet) bool {
		if (p.Seq == 6*536 || p.Seq == 7*536) && !p.Retransmit && !dropped[p.Seq] {
			dropped[p.Seq] = true
			return true
		}
		return false
	}
	l.snd.Start()
	if err := l.s.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("NewReno transfer did not complete")
	}
	st := l.snd.Stats()
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d; NewReno partial ACKs should repair both losses", st.Timeouts)
	}
	if st.FastRetransmits != 1 {
		t.Errorf("FastRetransmits = %d, want 1 (second loss repaired by partial ACK)", st.FastRetransmits)
	}
	if st.RetransSegments != 2 {
		t.Errorf("RetransSegments = %d, want exactly 2", st.RetransSegments)
	}
}

func TestNewRenoString(t *testing.T) {
	if NewReno.String() != "newreno" {
		t.Error("NewReno name")
	}
}

func TestDelayedAcksCoalesce(t *testing.T) {
	h := newSinkHarness(t, 64*units.KB)
	h.sink.EnableDelayedAcks(200 * time.Millisecond)
	// Two back-to-back in-order segments: one ACK, not two.
	h.sink.Receive(data(0, 536))
	h.sink.Receive(data(536, 536))
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d, want 1 (every second segment)", len(h.acks))
	}
	if h.acks[0].AckNo != 1072 {
		t.Errorf("coalesced ack = %d, want 1072", h.acks[0].AckNo)
	}
}

func TestDelayedAckTimerFiresForLoneSegment(t *testing.T) {
	h := newSinkHarness(t, 64*units.KB)
	h.sink.EnableDelayedAcks(200 * time.Millisecond)
	h.sink.Receive(data(0, 536))
	if len(h.acks) != 0 {
		t.Fatal("lone segment acked immediately under delayed acks")
	}
	if err := h.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.acks) != 1 || h.acks[0].AckNo != 536 {
		t.Fatalf("delayed ack wrong: %v", h.acks)
	}
}

func TestDelayedAcksStillDupackImmediately(t *testing.T) {
	h := newSinkHarness(t, 64*units.KB)
	h.sink.EnableDelayedAcks(200 * time.Millisecond)
	h.sink.Receive(data(0, 536))
	// An out-of-order arrival must produce an immediate (dup)ack so fast
	// retransmit is not delayed; the pending delayed ack folds into it.
	h.sink.Receive(data(2*536, 536))
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d, want immediate dupack", len(h.acks))
	}
	if h.acks[0].AckNo != 536 {
		t.Errorf("dupack = %d, want 536", h.acks[0].AckNo)
	}
	// No stray timer ack afterwards.
	if err := h.s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(h.acks) != 1 {
		t.Errorf("stray delayed ack fired: %v", h.acks)
	}
}

func TestDelayedAcksTransferStillCompletes(t *testing.T) {
	cfg := wanConfig()
	l := newLoop(t, cfg, 30*time.Millisecond)
	l.sink.EnableDelayedAcks(0) // default delay
	l.snd.Start()
	if err := l.s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("transfer with delayed acks did not complete")
	}
	st := l.sink.Stats()
	// Delayed acks should send materially fewer ACKs than segments.
	if st.AcksSent >= st.SegmentsReceived {
		t.Errorf("AcksSent %d not below SegmentsReceived %d", st.AcksSent, st.SegmentsReceived)
	}
}

func TestIdleConnectionTimerStops(t *testing.T) {
	// Interactive pattern: a write is acked, the connection goes idle.
	// The retransmission timer must stop — no spurious timeouts, no
	// window collapse while waiting for the next write.
	cfg := wanConfig()
	cfg.Streaming = true
	cfg.Total = 10 * 536
	l := newLoop(t, cfg, 20*time.Millisecond)
	l.snd.Start()
	l.snd.MakeAvailable(536)
	if err := l.s.Run(10 * time.Second); err != nil { // long idle period
		t.Fatal(err)
	}
	if got := l.snd.Stats().Timeouts; got != 0 {
		t.Fatalf("idle connection recorded %d timeouts", got)
	}
	if l.s.Pending() != 0 {
		t.Errorf("%d events pending during idle (timer not stopped)", l.s.Pending())
	}
	// The next write still flows normally.
	l.snd.MakeAvailable(536)
	if err := l.s.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.sink.Delivered(); got != 2*536 {
		t.Errorf("delivered %d after resume", got)
	}
}
