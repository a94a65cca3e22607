package tcp

import (
	"math"
	"strings"
	"testing"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// newCheckedSender builds a minimal sender for invariant tests.
func newCheckedSender(t *testing.T) *Sender {
	t.Helper()
	s := sim.New()
	snd, err := NewSender(s, Config{
		MSS:    536,
		Window: 4 * units.KB,
		Total:  100 * units.KB,
	}, &packet.IDGen{}, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	return snd
}

// TestCheckInvariantsHealthy: a freshly built sender holds every
// invariant.
func TestCheckInvariantsHealthy(t *testing.T) {
	snd := newCheckedSender(t)
	if err := snd.CheckInvariants(); err != nil {
		t.Errorf("fresh sender violates an invariant: %v", err)
	}
}

// TestCheckInvariantsTripsOnCorruption plays the broken toy protocol:
// each mutation below is a state no correct TCP can reach, and each must
// trip the corresponding check.
func TestCheckInvariantsTripsOnCorruption(t *testing.T) {
	tests := []struct {
		name   string
		corupt func(*Sender)
		want   string // substring of the violation
	}{
		{"NaN cwnd", func(s *Sender) { s.st.Cwnd = math.NaN() }, "not finite"},
		{"infinite cwnd", func(s *Sender) { s.st.Cwnd = math.Inf(1) }, "not finite"},
		{"cwnd below one segment", func(s *Sender) { s.st.Cwnd = 10 }, "below one segment"},
		{"runaway cwnd", func(s *Sender) { s.st.Cwnd = 1e9 }, "beyond any legal inflation"},
		{"negative ssthresh", func(s *Sender) { s.st.Ssthresh = -1 }, "negative ssthresh"},
		{"snd_una past snd_nxt", func(s *Sender) { s.st.SndUna = s.st.SndNxt + 1 }, "snd_una"},
		{"negative snd_una", func(s *Sender) { s.st.SndUna = -1; s.st.SndNxt = -1 }, "sequence order"},
		{"snd_nxt past snd_max", func(s *Sender) { s.st.SndNxt = s.st.SndMax + 536 }, "snd_nxt"},
		{"snd_max past transfer", func(s *Sender) {
			s.st.SndMax = int64(s.cfg.Total) + 1
			s.st.SndNxt = s.st.SndMax
		}, "beyond"},
		{"avail past transfer", func(s *Sender) { s.st.avail = int64(s.cfg.Total) + 1 }, "available"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			snd := newCheckedSender(t)
			tt.corupt(snd)
			err := snd.CheckInvariants()
			if err == nil {
				t.Fatal("corrupted state passed the invariant check")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("violation %q does not mention %q", err, tt.want)
			}
		})
	}
}
