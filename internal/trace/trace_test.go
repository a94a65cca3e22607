package trace

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

func TestRecordAndPacketNumbers(t *testing.T) {
	tr := New(536)
	tr.events = append(tr.events, Event{At: time.Second, Kind: Send, Seq: 0})
	tr.events = append(tr.events, Event{At: 2 * time.Second, Kind: Send, Seq: 536})
	tr.events = append(tr.events, Event{At: 3 * time.Second, Kind: Retransmit, Seq: 536})
	tr.events = append(tr.events, Event{At: 4 * time.Second, Kind: Timeout, Seq: 536})
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	if tr.packetNo(evs[1].Seq) != 1 || tr.packetNo(evs[2].Seq) != 1 {
		t.Errorf("packet numbers = %d, %d, want 1, 1", tr.packetNo(evs[1].Seq), tr.packetNo(evs[2].Seq))
	}
	if tr.Count(Send) != 2 || tr.Count(Retransmit) != 1 || tr.Count(Timeout) != 1 {
		t.Error("counts wrong")
	}
}

// clockAt returns a simulator clock reading d.
func clockAt(d time.Duration) *sim.Simulator {
	s := sim.New()
	s.Advance(d)
	return s
}

func TestHooksFeedTrace(t *testing.T) {
	clock := sim.New()
	src := NewSource(536, clock)
	tr := src.Store()
	clock.Advance(time.Second)
	src.OnState(&Event{Kind: Send, Seq: 0, Payload: 536})
	clock.Advance(2 * time.Second)
	for _, k := range []EventKind{Retransmit, Timeout, FastRetx, EBSNReset, AckIn} {
		src.OnState(&Event{Kind: k})
	}
	if tr.Count(Send) != 1 || tr.Count(Retransmit) != 1 ||
		tr.Count(Timeout) != 1 || tr.Count(FastRetx) != 1 ||
		tr.Count(EBSNReset) != 1 || tr.Count(AckIn) != 1 {
		t.Errorf("hook-fed counts wrong: %+v", tr.Events())
	}
	if tr.Events()[0].At != time.Second || tr.Events()[1].At != 2*time.Second {
		t.Error("hook did not use the clock")
	}
}

func TestBSHooksFeedTrace(t *testing.T) {
	src := NewSource(536, clockAt(time.Second))
	tr, h := src.Store(), src.BSHooks()
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

// recorder is a Checker that keeps what it is shown, failing on the
// event index failAt.
type recorder struct {
	idxs   []int
	got    []Event
	failAt int
}

func (r *recorder) Observe(idx int, e *Event) error {
	r.idxs = append(r.idxs, idx)
	r.got = append(r.got, *e)
	if idx == r.failAt {
		return fmt.Errorf("event %d refused", idx)
	}
	return nil
}

// TestSourceStreamsWithoutStoring pins the source's contract: the checker
// sees every event with its position in the stream, the index counts
// events whether or not anything stores them, a store attached later
// retains only what follows, and each family's scratch carries only its
// own fields — nothing a previous event of another family wrote.
func TestSourceStreamsWithoutStoring(t *testing.T) {
	clock := clockAt(time.Second)
	src := NewSource(536, clock)
	rec := &recorder{failAt: -1}
	src.Check("test", rec)
	src.OnState(&Event{Kind: Send, Seq: 536, Payload: 536, Cwnd: 536})
	clock.Advance(2 * time.Second)
	src.OnState(&Event{Kind: Timeout, Seq: 536})
	tr := src.Store()
	src.BSHooks().OnARQAttempt(7, 4, 2)
	src.BSHooks().OnARQDiscard(4)
	src.MobileHook()(&packet.Packet{Seq: 1072, LinkSeq: 1})
	src.BSHooks().OnSnoopRetx(536, 1)
	src.BSHooks().OnSnoopSuppress(1072)

	if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(rec.idxs, want) {
		t.Errorf("checker indices = %v, want %v", rec.idxs, want)
	}
	got := rec.got
	want := []Event{
		{At: time.Second, Kind: Send, Seq: 536, Payload: 536, Cwnd: 536},
		{At: 2 * time.Second, Kind: Timeout, Seq: 536},
		{At: 2 * time.Second, Kind: ARQAttempt, Unit: 7, Pkt: 4, Attempt: 2},
		{At: 2 * time.Second, Kind: ARQDiscard, Pkt: 4},
		{At: 2 * time.Second, Kind: MHDeliver, Seq: 1072, Unit: 1},
		{At: 2 * time.Second, Kind: SnoopRetx, Seq: 536, Attempt: 1},
		{At: 2 * time.Second, Kind: SnoopSuppress, Ack: 1072},
	}
	if !slices.Equal(got, want) {
		t.Errorf("checker events =\n%+v\nwant\n%+v", got, want)
	}
	evs := tr.Events()
	if !slices.Equal(evs, got[2:]) {
		t.Errorf("store attached after two events holds %+v, want the last five the checker saw", evs)
	}
	if tr.packetNo(got[0].Seq) != 1 {
		t.Errorf("packet number of seq 536 at MSS 536 = %d, want 1", tr.packetNo(got[0].Seq))
	}
}

// TestSourceCheckHaltsAtTheEvent pins the halt: the checker's first error
// fails the clock's run as the named check, stamped with the event's
// time, and is stored after the event it judged.
func TestSourceCheckHaltsAtTheEvent(t *testing.T) {
	clock := clockAt(3 * time.Second)
	src := NewSource(536, clock)
	tr := src.Store()
	src.Check("oracle", &recorder{failAt: 1})
	src.BSHooks().OnARQAttempt(1, 1, 1)
	if clock.Failure() != nil {
		t.Fatalf("run failed on a conforming event: %v", clock.Failure())
	}
	src.BSHooks().OnARQAttempt(2, 2, 1)
	var ce *sim.CheckError
	if !errors.As(clock.Failure(), &ce) || ce.Name != "oracle" || ce.At != 3*time.Second ||
		ce.Err.Error() != "event 1 refused" {
		t.Fatalf("failure = %v, want the oracle check at 3s refusing event 1", clock.Failure())
	}
	if n := len(tr.Events()); n != 2 {
		t.Errorf("store holds %d events, want both", n)
	}
}

func TestCSVFormat(t *testing.T) {
	tr := New(100)
	tr.events = append(tr.events, Event{At: 1500 * time.Millisecond, Kind: Send, Seq: 0})
	tr.events = append(tr.events, Event{At: 2 * time.Second, Kind: Retransmit, Seq: 100 * 95}) // packet 95 -> mod 90 = 5
	tr.events = append(tr.events, Event{At: 3 * time.Second, Kind: Timeout, Seq: 0})           // not a transmission: excluded
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
	tr.events = append(tr.events, Event{At: 0, Kind: Send, Seq: 0})
	tr.events = append(tr.events, Event{At: 30 * time.Second, Kind: Send, Seq: 100 * 89}) // top-right area
	tr.events = append(tr.events, Event{At: 15 * time.Second, Kind: Retransmit, Seq: 0})  // bottom middle
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
	tr.events = append(tr.events, Event{At: 5 * time.Second, Kind: Send, Seq: 0})
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
	tr.events = append(tr.events, Event{At: 0, Kind: Send, Seq: 1234})
	if tr.packetNo(tr.Events()[0].Seq) != 1234 {
		t.Error("zero MSS should fall back to 1")
	}
	_ = units.ByteSize(0)
}
