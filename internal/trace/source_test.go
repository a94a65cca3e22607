package trace_test

import (
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// TestStateSnapshotFieldsReachEvent drives a real sender whose state hook
// feeds a source, and checks that each transition reaches the stream as
// one event carrying the sender's post-transition state: its kind, the
// transition's operands, the congestion state, the sequence pointers and
// the timer, written in place by the sender and stamped by the source.
func TestStateSnapshotFieldsReachEvent(t *testing.T) {
	s := sim.New()
	src := trace.NewSource(536, s)
	tr := src.Store()
	cfg := tcp.Config{MSS: 536, Window: 4 * units.KB, Total: 20 * units.KB}
	snd, err := tcp.NewSender(s, cfg, &packet.IDGen{}, func(*packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	snd.SetHooks(tcp.Hooks{OnState: src.OnState})
	snd.Start()
	s.Schedule(time.Second, func() { snd.Receive(&packet.Packet{Kind: packet.Ack, AckNo: 536}) })
	s.Schedule(2*time.Second, func() { snd.Receive(&packet.Packet{Kind: packet.EBSN}) })
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// The transfer stalls after the ACK (no more arrive), so the timer
	// fires until the run is cut: the stream is send, ack, two sends,
	// an EBSN re-arm, then timeouts each followed by a retransmission.
	evs := tr.Events()
	if len(evs) < 7 {
		t.Fatalf("stream %+v, want at least seven events", evs)
	}
	want := []trace.Event{
		{At: 0, Kind: trace.Send, Payload: 536, Cwnd: 536, Ssthresh: 4096,
			RTO: 3 * time.Second, Deadline: 3 * time.Second},
		{At: time.Second, Kind: trace.AckIn, Ack: 536, AckClass: int(tcp.AckNew), Cwnd: 1072, Ssthresh: 4096,
			SndUna: 536, SndNxt: 536, SndMax: 536, RTO: evs[1].RTO, Deadline: -1},
	}
	for i, w := range want {
		if evs[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
	if e := evs[2]; e.Kind != trace.Send || e.Seq != 536 || e.SndNxt != 536 || e.SndMax != 536 ||
		e.Deadline != time.Second+e.RTO {
		t.Errorf("first send after the ACK = %+v, want seq 536 before the pointers advance, timer at now+RTO", e)
	}
	if e := evs[4]; e.Kind != trace.EBSNReset || e.At != 2*time.Second || e.SndUna != 536 || e.SndMax != 1608 ||
		e.Deadline != 2*time.Second+e.RTO {
		t.Errorf("EBSN event = %+v, want a re-arm at 2s with 1072 bytes outstanding", e)
	}
	if e := evs[5]; e.Kind != trace.Timeout || e.Seq != 536 || e.Cwnd != 536 || e.Ssthresh != 1072 || e.Shift != 1 ||
		e.SndNxt != 536 {
		t.Errorf("timeout event = %+v, want a collapse to one segment with ssthresh halved and shift 1", e)
	}
	if e := evs[6]; e.Kind != trace.Retransmit || e.Seq != 536 || e.Payload != 536 {
		t.Errorf("event after the timeout = %+v, want the retransmission of seq 536", e)
	}
}
