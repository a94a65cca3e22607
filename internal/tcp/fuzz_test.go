package tcp

import (
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/units"
)

// FuzzSenderAckStream throws arbitrary ack/control sequences at a sender
// of a fuzzed variant (for the SACK variant each ACK also carries a block
// derived from the input) and checks the state machine never
// desynchronizes: CheckInvariants holds after every injected packet, and
// the transfer still completes once the network behaves. Runs the seeds
// and testdata/fuzz/FuzzSenderAckStream as a corpus test under plain
// `go test`; use `go test -fuzz=FuzzSenderAckStream` to explore.
func FuzzSenderAckStream(f *testing.F) {
	for variant := byte(0); variant < 4; variant++ {
		f.Add(variant, []byte{0, 1, 2, 253, 254, 255}, []byte{1, 2, 3})
		f.Add(variant, []byte{255, 255, 255, 0, 0, 0}, []byte{0})
		f.Add(variant, []byte{7, 7, 7, 7, 7}, []byte{2, 2, 2})
	}

	f.Fuzz(func(t *testing.T, variant byte, ackBytes, kinds []byte) {
		cfg := Config{
			MSS:     536,
			Window:  4 * units.KB,
			Total:   10 * units.KB,
			Variant: Tahoe + Variant(variant%4),
		}
		l := newLoop(t, cfg, 10*time.Millisecond)
		if cfg.Variant.Scoreboard() {
			l.sink.EnableSACK()
		}
		l.snd.Start()
		if err := l.s.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Inject the fuzzed control stream.
		for i, b := range ackBytes {
			kind := packet.Ack
			if i < len(kinds) {
				switch kinds[i] % 4 {
				case 1:
					kind = packet.EBSN
				case 2:
					kind = packet.SourceQuench
				case 3:
					kind = packet.Data // ignored by the sender
				}
			}
			p := &packet.Packet{
				Kind:             kind,
				AckNo:            int64(b) * 97, // scatter across and beyond the transfer
				CongestionMarked: b%5 == 0,
			}
			if cfg.Variant.Scoreboard() {
				start := int64(ackBytes[(i+1)%len(ackBytes)]) * 97
				p.SACK = []packet.SACKBlock{{Start: start, End: start + int64(b%4)*536}}
			}
			l.snd.Receive(p)
			if err := l.snd.CheckInvariants(); err != nil {
				t.Fatalf("after packet %d (%v %d): %v", i, kind, p.AckNo, err)
			}
		}
		// Whatever the injection did, an honest network finishes the job.
		if err := l.s.Run(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if !l.snd.Done() {
			t.Fatal("transfer did not complete after fuzzed control stream")
		}
		if l.sink.Delivered() != cfg.Total {
			t.Fatalf("delivered %d, want %d", l.sink.Delivered(), cfg.Total)
		}
	})
}
