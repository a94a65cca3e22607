package tcp

import (
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

func TestScoreboardMergeAndCover(t *testing.T) {
	var sb scoreboard
	sb.record([]packet.SACKBlock{{Start: 1000, End: 2000}})
	sb.record([]packet.SACKBlock{{Start: 3000, End: 4000}})
	sb.record([]packet.SACKBlock{{Start: 2000, End: 3000}}) // bridges the gap
	if len(sb.blocks) != 1 {
		t.Fatalf("blocks = %d, want merged into 1", len(sb.blocks))
	}
	if !sb.covered(1500, 2500) {
		t.Error("merged range not covered")
	}
	if sb.covered(500, 1500) {
		t.Error("uncovered prefix reported covered")
	}
	if sb.covered(3500, 4500) {
		t.Error("uncovered suffix reported covered")
	}
}

func TestScoreboardAdvance(t *testing.T) {
	var sb scoreboard
	sb.record([]packet.SACKBlock{{Start: 1000, End: 2000}, {Start: 3000, End: 4000}})
	sb.advance(1500)
	if sb.covered(1000, 1400) {
		t.Error("range below una survived advance")
	}
	if !sb.covered(1500, 2000) {
		t.Error("trimmed block lost its tail")
	}
	sb.advance(5000)
	if len(sb.blocks) != 0 {
		t.Errorf("blocks after full advance = %d", len(sb.blocks))
	}
}

func TestScoreboardIgnoresDegenerateBlocks(t *testing.T) {
	var sb scoreboard
	sb.record([]packet.SACKBlock{{Start: 10, End: 10}, {Start: 20, End: 5}})
	if len(sb.blocks) != 0 {
		t.Errorf("degenerate blocks stored: %d", len(sb.blocks))
	}
	sb.blocks = sb.blocks[:0]
}

func TestScoreboardBounded(t *testing.T) {
	var sb scoreboard
	for i := int64(0); i < 1000; i++ {
		sb.record([]packet.SACKBlock{{Start: i * 10, End: i*10 + 5}})
	}
	if len(sb.blocks) > maxScoreboardBlocks {
		t.Errorf("scoreboard grew to %d blocks", len(sb.blocks))
	}
}

func TestSinkSACKBlocks(t *testing.T) {
	s := sim.New()
	var acks []*packet.Packet
	sink, err := NewSink(s, 64*units.KB, &packet.IDGen{}, func(p *packet.Packet) {
		acks = append(acks, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.EnableSACK()
	// Receive 0, then 2, 3, then 5 (holes at 1 and 4).
	sink.Receive(data(0, 536))
	sink.Receive(data(2*536, 536))
	sink.Receive(data(3*536, 536))
	sink.Receive(data(5*536, 536))
	last := acks[len(acks)-1]
	if len(last.SACK) != 2 {
		t.Fatalf("SACK blocks = %v, want 2 ranges", last.SACK)
	}
	if last.SACK[0] != (packet.SACKBlock{Start: 2 * 536, End: 4 * 536}) {
		t.Errorf("first block = %+v", last.SACK[0])
	}
	if last.SACK[1] != (packet.SACKBlock{Start: 5 * 536, End: 6 * 536}) {
		t.Errorf("second block = %+v", last.SACK[1])
	}
	// Filling hole 1 merges: blocks shrink.
	sink.Receive(data(536, 536))
	last = acks[len(acks)-1]
	if last.AckNo != 4*536 {
		t.Errorf("cumulative ack = %d", last.AckNo)
	}
	if len(last.SACK) != 1 || last.SACK[0].Start != 5*536 {
		t.Errorf("post-fill blocks = %v", last.SACK)
	}
}

// TestSinkEntryStrandedBelowRcvNxt pins an odd case as it stands (ROADMAP
// item 4 lists it as an open question): a partial-overlap accept can move
// rcv_nxt past the start of a buffered segment without reaching its end.
// Nothing drains that entry afterwards — drainBuffered looks only for a
// segment starting exactly at rcv_nxt — so it stays for the rest of the
// connection and every later ACK advertises it as the first SACK block,
// below the cumulative ack. The ordered buffer keeps the behaviour of the
// map it replaced, bit for bit.
func TestSinkEntryStrandedBelowRcvNxt(t *testing.T) {
	h := newSinkHarness(t, 64*units.KB)
	h.sink.EnableSACK()
	h.sink.Receive(data(1000, 500)) // out of order: buffered
	h.sink.Receive(data(0, 800))
	h.sink.Receive(data(500, 700)) // overlaps [500,800): accepts [800,1200)
	if got := h.sink.RcvNxt(); got != 1200 {
		t.Fatalf("rcv_nxt = %d after the overlap accept, want 1200", got)
	}
	stranded := packet.SACKBlock{Start: 1000, End: 1500}
	if last := h.acks[len(h.acks)-1]; len(last.SACK) != 1 || last.SACK[0] != stranded {
		t.Fatalf("SACK after the overlap accept = %v, want the stranded %v", last.SACK, stranded)
	}
	h.sink.Receive(data(1200, 300)) // in order, up to the stranded entry's end
	h.sink.Receive(data(2000, 100)) // a genuine hole above
	last := h.acks[len(h.acks)-1]
	if last.AckNo != 1500 || len(last.SACK) != 2 || last.SACK[0] != stranded ||
		last.SACK[1] != (packet.SACKBlock{Start: 2000, End: 2100}) {
		t.Errorf("ack %d SACK %v, want 1500 with the stranded block first and the real one after it", last.AckNo, last.SACK)
	}
	h.sink.Receive(data(1500, 500)) // fills the hole: the real entry drains, the stranded one does not
	last = h.acks[len(h.acks)-1]
	if last.AckNo != 2100 || len(last.SACK) != 1 || last.SACK[0] != stranded {
		t.Errorf("ack %d SACK %v, want 2100 still carrying %v", last.AckNo, last.SACK, stranded)
	}
	if st := h.sink.Stats(); st.BufferedSegments != 2 || st.BufferedPeak != 2 || h.sink.Delivered() != 2100 {
		t.Errorf("stats %+v delivered %d", st, h.sink.Delivered())
	}
}

func TestSinkNoSACKWhenDisabled(t *testing.T) {
	h := newSinkHarness(t, 4*units.KB)
	h.sink.Receive(data(2*536, 536)) // OOO
	if h.acks[0].SACK != nil {
		t.Error("SACK blocks attached while disabled")
	}
}

// newSACKLoop wires a loop with SACK negotiated on both ends.
func newSACKLoop(t *testing.T, cfg Config, delay time.Duration) *loop {
	t.Helper()
	cfg.SACK = true
	l := newLoop(t, cfg, delay)
	l.sink.EnableSACK()
	return l
}

func TestSACKAvoidsRedundantGoBackN(t *testing.T) {
	// Drop two non-adjacent segments from one window; Tahoe's go-back-N
	// normally resends everything from the first hole, but with SACK the
	// delivered middle segments are skipped.
	cfg := wanConfig()
	cfg.Total = 60 * units.KB
	run := func(sack bool) Stats {
		var l *loop
		if sack {
			l = newSACKLoop(t, cfg, 50*time.Millisecond)
		} else {
			l = newLoop(t, cfg, 50*time.Millisecond)
		}
		dropped := map[int64]bool{}
		l.dropData = func(p *packet.Packet) bool {
			if (p.Seq == 5*536 || p.Seq == 8*536) && !p.Retransmit && !dropped[p.Seq] {
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
			t.Fatal("did not complete")
		}
		if l.sink.Delivered() != cfg.Total {
			t.Fatalf("delivered %d", l.sink.Delivered())
		}
		return l.snd.Stats()
	}
	plain := run(false)
	sacked := run(true)
	if sacked.RetransSegments >= plain.RetransSegments {
		t.Errorf("SACK retransmissions %d not below plain %d",
			sacked.RetransSegments, plain.RetransSegments)
	}
	if sacked.SACKSkippedSegments == 0 {
		t.Error("no segments skipped via the scoreboard")
	}
	if plain.SACKSkippedSegments != 0 {
		t.Error("plain run recorded SACK skips")
	}
}

func TestSACKUnderRandomLossStillCorrect(t *testing.T) {
	// Heavy random loss with SACK on: the transfer must still complete
	// exactly (no byte skipped that the receiver did not have).
	rng := sim.NewRNG(11)
	cfg := Config{
		MSS:        536,
		Window:     8 * units.KB,
		Total:      40 * units.KB,
		InitialRTO: 500 * time.Millisecond,
		SACK:       true,
	}
	l := newLoop(t, cfg, 20*time.Millisecond)
	l.sink.EnableSACK()
	l.dropData = func(*packet.Packet) bool { return rng.Bernoulli(0.25) }
	l.dropAck = func(*packet.Packet) bool { return rng.Bernoulli(0.25) }
	l.snd.Start()
	if err := l.s.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !l.snd.Done() {
		t.Fatal("did not complete")
	}
	if l.sink.Delivered() != cfg.Total {
		t.Fatalf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
	}
}
