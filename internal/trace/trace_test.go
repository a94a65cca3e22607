package trace

import (
	"strings"
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

func TestRecordAndPacketNumbers(t *testing.T) {
	tr := New(536)
	tr.Record(time.Second, Send, 0)
	tr.Record(2*time.Second, Send, 536)
	tr.Record(3*time.Second, Retransmit, 536)
	tr.Record(4*time.Second, Timeout, 536)
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].PacketNo != 1 || evs[2].PacketNo != 1 {
		t.Errorf("packet numbers = %d, %d, want 1, 1", evs[1].PacketNo, evs[2].PacketNo)
	}
	if tr.Count(Send) != 2 || tr.Count(Retransmit) != 1 || tr.Count(Timeout) != 1 {
		t.Error("counts wrong")
	}
	if tr.SendsOf(1) != 2 {
		t.Errorf("SendsOf(1) = %d, want 2 (send + retransmit)", tr.SendsOf(1))
	}
	if tr.SendsOf(0) != 1 {
		t.Errorf("SendsOf(0) = %d, want 1", tr.SendsOf(0))
	}
}

func TestHooksFeedTrace(t *testing.T) {
	now := time.Duration(0)
	src := NewSource(536, func() time.Duration { return now })
	tr, h := src.Store(), src.Hooks()
	now = time.Second
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateSend, Seq: 0, Payload: 536})
	now = 2 * time.Second
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateSend, Seq: 0, Payload: 536, Retransmit: true})
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateTimeout, Seq: 0})
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateFastRetx, Seq: 536})
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateEBSN})
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateAck, AckNo: 536, AckClass: tcp.AckNew})
	if tr.Count(Send) != 1 || tr.Count(Retransmit) != 1 ||
		tr.Count(Timeout) != 1 || tr.Count(FastRetx) != 1 ||
		tr.Count(EBSNReset) != 1 || tr.Count(AckIn) != 1 {
		t.Errorf("hook-fed counts wrong: %+v", tr.Events())
	}
	if tr.Events()[0].At != time.Second {
		t.Error("hook did not use the clock callback")
	}
}

func TestStateSnapshotFieldsReachEvent(t *testing.T) {
	src := NewSource(536, func() time.Duration { return 5 * time.Second })
	tr, h := src.Store(), src.Hooks()
	h.OnState(&tcp.StateSnapshot{
		Kind: tcp.StateAck, AckNo: 1072, AckClass: tcp.AckNew,
		Cwnd: 1608, Ssthresh: 4288,
		SndUna: 1072, SndNxt: 2144, SndMax: 2144,
		RTO: 3 * time.Second, TimerDeadline: 8 * time.Second,
		BackoffShift: 2, DupAcks: 1,
	})
	e := tr.Events()[0]
	if e.Kind != AckIn || e.Ack != 1072 || e.AckClass != int(tcp.AckNew) {
		t.Errorf("ack fields lost: %+v", e)
	}
	if e.Cwnd != 1608 || e.Ssthresh != 4288 ||
		e.SndUna != 1072 || e.SndNxt != 2144 || e.SndMax != 2144 {
		t.Errorf("congestion/sequence fields lost: %+v", e)
	}
	if e.RTO != 3*time.Second || e.Deadline != 8*time.Second || e.Shift != 2 || e.DupAcks != 1 {
		t.Errorf("timer fields lost: %+v", e)
	}
}

func TestBSHooksFeedTrace(t *testing.T) {
	now := time.Duration(0)
	src := NewSource(536, func() time.Duration { return now })
	tr, h := src.Store(), src.BSHooks()
	now = time.Second
	h.OnARQAttempt(7, 3, 1)
	h.OnARQFailure(7, 3, 1)
	h.OnARQAttempt(7, 3, 2)
	h.OnARQAck(7, 3)
	h.OnARQDiscard(4)
	h.OnNotify(packet.EBSN, 0)
	h.OnNotify(packet.SourceQuench, 0)
	if tr.Count(ARQAttempt) != 2 || tr.Count(ARQFailure) != 1 ||
		tr.Count(ARQAck) != 1 || tr.Count(ARQDiscard) != 1 ||
		tr.Count(EBSNSent) != 1 || tr.Count(QuenchSent) != 1 {
		t.Errorf("bs-hook counts wrong: %+v", tr.Events())
	}
	first := tr.Events()[0]
	if first.Unit != 7 || first.Pkt != 3 || first.Attempt != 1 {
		t.Errorf("arq fields lost: %+v", first)
	}
	mh := src.MobileHook()
	mh(&packet.Packet{Seq: 536, LinkSeq: 9})
	last := tr.Events()[len(tr.Events())-1]
	if last.Kind != MHDeliver || last.Seq != 536 || last.Unit != 9 {
		t.Errorf("mobile hook fields lost: %+v", last)
	}
}

// TestSourceStreamsWithoutStoring pins the source/sink contract: a sink
// sees every event with its position in the stream, the index counts
// events whether or not anything stores them, and a store subscribed
// later retains only what follows.
func TestSourceStreamsWithoutStoring(t *testing.T) {
	now := time.Second
	src := NewSource(536, func() time.Duration { return now })
	var idxs []int
	var got []Event
	src.Subscribe(func(idx int, e *Event) {
		idxs = append(idxs, idx)
		got = append(got, *e)
	})
	h := src.Hooks()
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateSend, Seq: 536, Payload: 536})
	now = 2 * time.Second
	h.OnState(&tcp.StateSnapshot{Kind: tcp.StateTimeout, Seq: 536})
	tr := src.Store()
	src.BSHooks().OnARQDiscard(4)
	h.OnState(&tcp.StateSnapshot{Kind: 0}) // not a traced transition: no event, no index
	src.MobileHook()(&packet.Packet{Seq: 1072, LinkSeq: 1})

	if len(idxs) != 4 || idxs[0] != 0 || idxs[1] != 1 || idxs[2] != 2 || idxs[3] != 3 {
		t.Errorf("sink indices = %v, want [0 1 2 3]", idxs)
	}
	if got[0].Kind != Send || got[0].At != time.Second || got[0].PacketNo != 1 ||
		got[1].Kind != Timeout || got[1].At != 2*time.Second ||
		got[2].Kind != ARQDiscard || got[2].Pkt != 4 || got[3].Kind != MHDeliver {
		t.Errorf("sink events = %+v", got)
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0] != got[2] || evs[1] != got[3] {
		t.Errorf("store subscribed after two events holds %+v, want the last two the sink saw", evs)
	}
}

func TestCSVFormat(t *testing.T) {
	tr := New(100)
	tr.Record(1500*time.Millisecond, Send, 0)
	tr.Record(2*time.Second, Retransmit, 100*95) // packet 95 -> mod 90 = 5
	tr.Record(3*time.Second, Timeout, 0)         // not a transmission: excluded
	csv := tr.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2", len(lines))
	}
	if lines[0] != "time_sec,packet_mod_90,kind" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1.500,0,send" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "2.000,5,retransmit" {
		t.Errorf("row 2 = %q (mod-90 wraparound)", lines[2])
	}
}

func TestRenderASCII(t *testing.T) {
	tr := New(100)
	tr.Record(0, Send, 0)
	tr.Record(30*time.Second, Send, 100*89)  // top-right area
	tr.Record(15*time.Second, Retransmit, 0) // bottom middle
	out := tr.RenderASCII(60, 20, 30*time.Second)
	if !strings.Contains(out, ".") {
		t.Error("no send marks rendered")
	}
	if !strings.Contains(out, "o") {
		t.Error("no retransmission marks rendered")
	}
	if !strings.Contains(out, "30s") {
		t.Error("x-axis label missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 20 {
		t.Errorf("grid height = %d lines", len(lines))
	}
	// Retransmission at 15s packet 0 must be on the bottom row of the grid.
	bottom := lines[len(lines)-4] // last grid row before axis
	if !strings.Contains(bottom, "o") {
		t.Errorf("retransmit mark not on bottom row: %q", bottom)
	}
}

func TestRenderASCIIDefaults(t *testing.T) {
	tr := New(100)
	tr.Record(5*time.Second, Send, 0)
	// Degenerate sizes clamp; zero horizon auto-scales.
	out := tr.RenderASCII(1, 1, 0)
	if out == "" {
		t.Error("empty render")
	}
}

func TestEventKindStrings(t *testing.T) {
	names := map[EventKind]string{
		Send: "send", Retransmit: "retransmit", Timeout: "timeout",
		FastRetx: "fastretx", EBSNReset: "ebsn",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if EventKind(77).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestNewClampsBadMSS(t *testing.T) {
	tr := New(0)
	tr.Record(0, Send, 1234)
	if tr.Events()[0].PacketNo != 1234 {
		t.Error("zero MSS should fall back to 1")
	}
	_ = units.ByteSize(0)
}
