package trace

import (
	"strings"
	"testing"
	"time"
)

// sampleEvents exercises every field of the golden encoding, including the
// idle-timer sentinel and sub-microsecond timestamps.
func sampleEvents() []Event {
	return []Event{
		{At: 0, Kind: Send, Seq: 0, Payload: 536, Cwnd: 536, Ssthresh: 4288,
			SndUna: 0, SndNxt: 0, SndMax: 0, RTO: 3 * time.Second, Deadline: -time.Microsecond},
		{At: 123456789 * time.Nanosecond, Kind: AckIn, Ack: 536, AckClass: 1,
			Cwnd: 1072, Ssthresh: 4288, SndUna: 536, SndNxt: 536, SndMax: 536,
			RTO: 3 * time.Second, Deadline: 3123456789 * time.Nanosecond, Shift: 0, DupAcks: 0},
		{At: 2 * time.Second, Kind: Timeout, Seq: 536, Cwnd: 536, Ssthresh: 2144,
			SndUna: 536, SndNxt: 536, SndMax: 1072, RTO: 6 * time.Second,
			Deadline: 8 * time.Second, Shift: 1},
		{At: 2500 * time.Millisecond, Kind: ARQAttempt, Unit: 42, Pkt: 7, Attempt: 3},
		{At: 3 * time.Second, Kind: MHDeliver, Seq: 1072, Unit: 9},
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	events := sampleEvents()
	enc := EncodeEvents(536, events)
	mss, decoded, err := DecodeEvents(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if mss != 536 {
		t.Errorf("mss = %d", mss)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	// Decoding is the encoding's normal form: re-encoding must be
	// byte-identical, and the decoded events must equal the normalized
	// originals exactly.
	if re := EncodeEvents(mss, decoded); re != enc {
		t.Errorf("re-encode not byte-stable:\n%s\nvs\n%s", enc, re)
	}
	norm := NormalizeEvents(events)
	if d := DiffEvents(norm, decoded, 0); d != nil {
		t.Errorf("decoded differs from normalized original: %v", d)
	}
}

func TestGoldenDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "not-a-golden\n",
		"bad mss":      "wtcp-golden v1 mss=0 events=0\n",
		"short line":   "wtcp-golden v1 mss=536 events=1\n0.000000 send seq=0\n",
		"bad kind":     "wtcp-golden v1 mss=536 events=1\n0.000000 bogus seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=0.000000 dl=- sh=0 dup=0 att=0 unit=0 pid=0\n",
		"count drift":  "wtcp-golden v1 mss=536 events=2\n0.000000 send seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=0.000000 dl=- sh=0 dup=0 att=0 unit=0 pid=0\n",
		"bad duration": "wtcp-golden v1 mss=536 events=1\n0.0 send seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=0.000000 dl=- sh=0 dup=0 att=0 unit=0 pid=0\n",
		// A duration past time.Duration's range used to wrap on decode
		// and re-encode as an unreadable string (FuzzGoldenDecode).
		"wrapping duration": "wtcp-golden v1 mss=536 events=1\n0.000000 send seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=27670116110.564327 dl=- sh=0 dup=0 att=0 unit=0 pid=0\n",
		"signed duration":   "wtcp-golden v1 mss=536 events=1\n-1.000000 send seq=0 len=0 ack=0 cls=0 una=0 nxt=0 max=0 cwnd=0 ssth=0 rto=0.000000 dl=- sh=0 dup=0 att=0 unit=0 pid=0\n",
	}
	for name, data := range cases {
		if _, _, err := DecodeEvents(data); err == nil {
			t.Errorf("%s: decode accepted %q", name, data)
		}
	}
}

func TestGoldenHeaderCountsEvents(t *testing.T) {
	enc := EncodeEvents(536, sampleEvents())
	header := strings.SplitN(enc, "\n", 2)[0]
	if header != "wtcp-golden v1 mss=536 events=5" {
		t.Errorf("header = %q", header)
	}
}

func TestTraceEncode(t *testing.T) {
	tr := New(536)
	tr.events = append(tr.events, Event{At: time.Second, Kind: Send, Seq: 0})
	_, events, err := DecodeEvents(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(events) != 1 || events[0].Kind != Send {
		t.Errorf("events = %+v", events)
	}
}

func TestDiffEventsEmptyAndSingle(t *testing.T) {
	// Two empty sequences match.
	if d := DiffEvents(nil, nil, 0); d != nil {
		t.Errorf("empty vs empty diverged: %v", d)
	}
	e := Event{At: time.Second, Kind: Send, Seq: 536}
	// Empty vs single: divergence at index 0, field "missing".
	d := DiffEvents(nil, []Event{e}, 0)
	if d == nil || d.Index != 0 || d.Field != "missing" {
		t.Fatalf("empty vs single: %v", d)
	}
	if d.A != "-" || !strings.Contains(d.B, "send") {
		t.Errorf("missing-side rendering: %v", d)
	}
	// Single vs itself matches.
	if d := DiffEvents([]Event{e}, []Event{e}, 0); d != nil {
		t.Errorf("single vs itself diverged: %v", d)
	}
	// Longer side reported symmetrically.
	d = DiffEvents([]Event{e, e}, []Event{e}, 0)
	if d == nil || d.Index != 1 || d.B != "-" {
		t.Errorf("single vs double: %v", d)
	}
}

func TestDiffEventsTimestampTolerance(t *testing.T) {
	a := []Event{{At: time.Second, Kind: Send, RTO: 3 * time.Second, Deadline: 4 * time.Second}}
	within := []Event{{At: time.Second + 400*time.Nanosecond, Kind: Send,
		RTO: 3*time.Second - 200*time.Nanosecond, Deadline: 4*time.Second + 499*time.Nanosecond}}
	if d := DiffEvents(a, within, 500*time.Nanosecond); d != nil {
		t.Errorf("sub-tolerance timestamps diverged: %v", d)
	}
	beyond := []Event{{At: time.Second + 2*time.Microsecond, Kind: Send,
		RTO: 3 * time.Second, Deadline: 4 * time.Second}}
	d := DiffEvents(a, beyond, 500*time.Nanosecond)
	if d == nil || d.Field != "at" {
		t.Errorf("beyond-tolerance timestamp accepted: %v", d)
	}
	// An idle timer never matches an armed one, however small the armed
	// deadline is.
	idle := []Event{{At: time.Second, Kind: Send, RTO: 3 * time.Second, Deadline: -time.Microsecond}}
	d = DiffEvents(a, idle, time.Hour)
	if d == nil || d.Field != "deadline" {
		t.Errorf("idle vs armed deadline accepted: %v", d)
	}
}

func TestDiffEventsFieldMismatches(t *testing.T) {
	base := Event{At: time.Second, Kind: AckIn, Ack: 536, Cwnd: 1072, Shift: 1}
	cases := []struct {
		field  string
		mutate func(*Event)
	}{
		{"kind", func(e *Event) { e.Kind = Timeout }},
		{"ack", func(e *Event) { e.Ack = 537 }},
		{"cwnd", func(e *Event) { e.Cwnd = 536 }},
		{"shift", func(e *Event) { e.Shift = 2 }},
		{"attempt", func(e *Event) { e.Attempt = 1 }},
		{"unit", func(e *Event) { e.Unit = 5 }},
	}
	for _, c := range cases {
		other := base
		c.mutate(&other)
		d := DiffEvents([]Event{base}, []Event{other}, 0)
		if d == nil || d.Field != c.field {
			t.Errorf("mutating %s: got %v", c.field, d)
		}
	}
}
