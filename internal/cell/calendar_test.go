package cell

import (
	"testing"
	"time"

	"wtcp/internal/sim"
)

// calendarDelays are the script interpreter's per-kind base delays, in
// the engine's proportions (radio cycle, propagation, wired hop).
var calendarDelays = [evAdmit + 1]int64{0, 130, 6, 5, 132, 128, 5000}

// runCalendarScript drives a calendar and a reference side by side
// through the operations script encodes, and fails on the first
// difference. The reference is the definition: a bag of events, popped
// least (at, seq) first. Two bytes make a push — kind and mode from the
// first, a signed offset from the second — and a first byte of 7 mod 8
// makes a pop; the virtual clock follows the pops, as the engine's does.
// Modes: the kind's usual delay after the clock (the engine's traffic),
// exactly the clock (ties at one instant, across kinds and within one),
// and an offset either side of the clock scaled up (same-kind pushes due
// earlier than ones already held, as a ReorderDelay or a busy wired pipe
// produces; the calendar does not care that some fall before the clock).
func runCalendarScript(t *testing.T, script []byte) {
	t.Helper()
	var c calendar
	var ref []calEvent
	var clock int64
	var seq uint64
	peak := 0
	// next indexes the reference's least (at, seq) event, -1 when it is
	// empty; check, which follows every operation, keeps it.
	next := -1
	check := func(op int) {
		t.Helper()
		if c.len() != len(ref) {
			t.Fatalf("op %d: len %d, reference holds %d", op, c.len(), len(ref))
		}
		best := -1
		for i := range ref {
			if best < 0 || ref[i].at < ref[best].at || (ref[i].at == ref[best].at && ref[i].seq < ref[best].seq) {
				best = i
			}
		}
		next = best
		want := int64(-1)
		if best >= 0 {
			want = ref[best].at
		}
		if got := c.minAt(); got != want {
			t.Fatalf("op %d: minAt %d, reference %d", op, got, want)
		}
		if best >= 0 && c.top != ref[best].kind {
			t.Fatalf("op %d: top names lane %d, reference's next event is in lane %d", op, c.top, ref[best].kind)
		}
		// The head cache must mirror every ring exactly, from the first
		// push on (which fills a zero calendar's cache).
		for k := uint8(1); k <= evAdmit && c.seq > 0; k++ {
			l := &c.lanes[k]
			at, seq := int64(emptyAt), c.headSeq[k]
			if l.n > 0 {
				at, seq = l.buf[l.head].at, l.buf[l.head].seq
			}
			if c.headAt[k] != at || c.headSeq[k] != seq {
				t.Fatalf("op %d: lane %d caches head (%d, %d), ring holds (%d, %d)", op, k, c.headAt[k], c.headSeq[k], at, seq)
			}
		}
	}
	pop := func(op int) {
		t.Helper()
		want := ref[next]
		ref[next] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
		// pop returns no at or seq: the check before it matched minAt to
		// want.at, and flow (the op that pushed it) names the event.
		kind, flow, bs, slot, a := c.pop()
		if got := (calEvent{at: want.at, seq: want.seq, kind: kind, flow: flow, bs: bs, slot: slot, a: a}); got != want {
			t.Fatalf("op %d: popped %+v, reference pops %+v", op, got, want)
		}
		if want.at > clock {
			clock = want.at
		}
	}
	for op := 0; op+1 < len(script); op += 2 {
		b, off := script[op], int64(int8(script[op+1]))
		if b%8 == 7 {
			if len(ref) > 0 {
				pop(op)
			}
			check(op)
			continue
		}
		kind := 1 + b%8%6
		at := clock
		switch b / 8 % 4 {
		case 0, 1:
			at += calendarDelays[kind] + off/16
		case 2:
		default:
			at += off * 40
		}
		at = max(at, 0) // minAt reserves negative times for "empty"
		seq++
		e := calEvent{at: at, kind: kind, flow: int32(op), bs: int32(b), slot: int32(off), a: at ^ int64(op)}
		c.push(e)
		e.seq = seq
		ref = append(ref, e)
		if len(ref) > peak {
			peak = len(ref)
		}
		check(op)
	}
	for op := len(script); len(ref) > 0; op++ {
		pop(op)
		check(op)
	}
	if c.peak != peak {
		t.Fatalf("peak %d, reference saw %d", c.peak, peak)
	}
}

// calendarScript draws a script of n operations: phases that mostly push
// (the rings grow and wrap) alternate with phases that mostly pop (they
// drain to empty), in one of the interpreter's modes or a mix.
func calendarScript(g *sim.RNG, n int) []byte {
	script := make([]byte, 0, 2*n)
	mode := g.Intn(5) // 4 mixes the modes
	for len(script) < 2*n {
		popShare := 2 + 6*g.Intn(2) // of 10
		for k := g.Intn(400); k >= 0; k-- {
			b := byte(7)
			if g.Intn(10) >= popShare {
				m := mode
				if m == 4 {
					m = g.Intn(4)
				}
				b = byte(m*8 + g.Intn(7))
			}
			script = append(script, b, byte(g.Intn(256)))
		}
	}
	return script
}

// TestCalendarMatchesSortedReference is the calendar's differential
// property: whatever is pushed, in whatever order, comes back least
// (at, seq) first, event for event.
func TestCalendarMatchesSortedReference(t *testing.T) {
	g := sim.NewRNG(20261003)
	for i := 0; i < 300; i++ {
		runCalendarScript(t, calendarScript(g, 50+g.Intn(3000)))
	}
}

// FuzzCalendarOrder hands the same interpreter to the fuzzer.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 0, 7, 0})
	f.Add([]byte{16, 0, 17, 0, 16, 0, 21, 0, 7, 0, 7, 0, 16, 0}) // ties across and within kinds
	f.Add([]byte{24, 100, 24, 50, 24, 0, 24, 200, 7, 0, 24, 10}) // one kind, due earlier and earlier
	// Five pushes at one instant into lanes 1, 2, 1, 3, 2: the third pop
	// empties lane 1 while lane 3's head ties lane 2's with a lower seq.
	f.Add([]byte{16, 0, 17, 0, 16, 0, 18, 0, 17, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0})
	// Lane 2 holds the minimum when a push to lane 1 becomes its new
	// head, first due before lane 1's old head, then tying lane 2's.
	f.Add([]byte{24, 100, 25, 10, 24, 50, 24, 10, 7, 0, 7, 0, 7, 0, 7, 0})
	g := sim.NewRNG(7)
	for i := 0; i < 4; i++ {
		f.Add(calendarScript(g, 200))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runCalendarScript(t, script)
	})
}

// TestCalendarArrivesAlmostSorted makes the premise of the lane layout a
// tested number: on the cell_10k configuration, under each policy, a push
// slides past less than one entry on average (measured: 0.001), and the
// calendar holds hundreds of events, not thousands, however many flows
// the cell has. The last case breaks the premise on purpose — a fifth of
// the sink deliveries held back 2 ms, so every prompt one passes the ~25
// held — and bounds what that costs: a few entries per push over all
// kinds (measured: 2.8).
func TestCalendarArrivesAlmostSorted(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("mid-scale runs in full non-race mode only")
	}
	reorder := perFlow10k(RoundRobin)
	reorder.Chaos = Chaos{ReorderP: 0.2, ReorderDelay: 2 * time.Millisecond}
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound float64
	}{
		{"rr", perFlow10k(RoundRobin), 1},
		{"fifo", perFlow10k(FIFO), 1},
		{"csdp", perFlow10k(CSDP), 1},
		{"rr-reorder", reorder, 8},
	} {
		e, err := newEngine(tc.cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		e.bind(sim.New())
		e.begin()
		if err := e.loop(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pushes, slides, peak := e.cal.seq, e.cal.slides, e.cal.peak
		if _, err := e.finish(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mean := float64(slides) / float64(pushes)
		t.Logf("%s: %d pushes, %.3f entries slid per push, peak %d events", tc.name, pushes, mean, peak)
		if mean >= tc.bound {
			t.Errorf("%s: a push slides past %.2f entries on average, want < %v", tc.name, mean, tc.bound)
		}
		if peak > 4096 {
			t.Errorf("%s: calendar peaked at %d events", tc.name, peak)
		}
	}
}

// TestCalendarPeakIsReported checks the reading reaches the Result.
func TestCalendarPeakIsReported(t *testing.T) {
	res, err := Run(Preset(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.CalendarPeak < 1 || uint64(res.CalendarPeak) > res.Events {
		t.Fatalf("CalendarPeak = %d over a run of %d events", res.CalendarPeak, res.Events)
	}
}
