package trace

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wtcp/internal/units"
)

// This file implements the canonical text encoding behind the golden-trace
// harness (wtcp conformance): every event rendered as one line with a
// fixed field order, timestamps normalized to microsecond precision. The
// encoding is its own normal form — Encode(Decode(g)) == g — so committed
// goldens are byte-stable and drift diffs are line-addressable.

// goldenHeader identifies the format; bump the version when the field set
// changes so stale goldens fail loudly instead of diffing confusingly.
const goldenHeader = "wtcp-golden v1"

// Encode renders the trace in the canonical golden format.
func (tr *Trace) Encode() string { return EncodeEvents(tr.mss, tr.events) }

// EncodeEvents renders an event sequence in the canonical golden format.
func EncodeEvents(mss units.ByteSize, events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s mss=%d events=%d\n", goldenHeader, int64(mss), len(events))
	for _, e := range events {
		fmt.Fprintf(&b, "%s %s seq=%d len=%d ack=%d cls=%d una=%d nxt=%d max=%d cwnd=%d ssth=%d rto=%s dl=%s sh=%d dup=%d att=%d unit=%d pid=%d\n",
			encodeDuration(e.At), e.Kind,
			e.Seq, e.Payload, e.Ack, e.AckClass,
			e.SndUna, e.SndNxt, e.SndMax, e.Cwnd, e.Ssthresh,
			encodeDuration(e.RTO), encodeDuration(e.Deadline),
			e.Shift, e.DupAcks, e.Attempt, e.Unit, e.Pkt)
	}
	return b.String()
}

// DecodeEvents parses a canonical golden back into events. Timestamps come
// back at microsecond precision (the encoding's normal form). PacketNo is
// rederived from the header's MSS.
func DecodeEvents(data string) (units.ByteSize, []Event, error) {
	lines := strings.Split(strings.TrimRight(data, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return 0, nil, fmt.Errorf("trace: empty golden")
	}
	var mss, count int64
	if _, err := fmt.Sscanf(lines[0], goldenHeader+" mss=%d events=%d", &mss, &count); err != nil {
		return 0, nil, fmt.Errorf("trace: bad golden header %q: %w", lines[0], err)
	}
	if mss <= 0 {
		return 0, nil, fmt.Errorf("trace: golden header has non-positive mss %d", mss)
	}
	events := make([]Event, 0, len(lines)-1)
	for i, line := range lines[1:] {
		e, err := decodeLine(line, units.ByteSize(mss))
		if err != nil {
			return 0, nil, fmt.Errorf("trace: golden line %d: %w", i+2, err)
		}
		events = append(events, e)
	}
	if int64(len(events)) != count {
		return 0, nil, fmt.Errorf("trace: golden header promises %d events, file has %d", count, len(events))
	}
	return units.ByteSize(mss), events, nil
}

// decodeLine parses one event line.
func decodeLine(line string, mss units.ByteSize) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 18 {
		return Event{}, fmt.Errorf("want 18 fields, got %d in %q", len(fields), line)
	}
	var e Event
	var err error
	if e.At, err = decodeDuration(fields[0]); err != nil {
		return Event{}, err
	}
	if e.Kind, err = ParseEventKind(fields[1]); err != nil {
		return Event{}, err
	}
	ints := map[string]*int64{
		"seq": &e.Seq, "len": &e.Payload, "ack": &e.Ack,
		"una": &e.SndUna, "nxt": &e.SndNxt, "max": &e.SndMax,
		"cwnd": &e.Cwnd, "ssth": &e.Ssthresh,
	}
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("malformed field %q", f)
		}
		switch key {
		case "rto":
			if e.RTO, err = decodeDuration(val); err != nil {
				return Event{}, err
			}
		case "dl":
			if e.Deadline, err = decodeDuration(val); err != nil {
				return Event{}, err
			}
		case "cls", "sh", "dup", "att":
			n, perr := strconv.Atoi(val)
			if perr != nil {
				return Event{}, fmt.Errorf("field %q: %w", f, perr)
			}
			switch key {
			case "cls":
				e.AckClass = n
			case "sh":
				e.Shift = n
			case "dup":
				e.DupAcks = n
			case "att":
				e.Attempt = n
			}
		case "unit", "pid":
			n, perr := strconv.ParseUint(val, 10, 64)
			if perr != nil {
				return Event{}, fmt.Errorf("field %q: %w", f, perr)
			}
			if key == "unit" {
				e.Unit = n
			} else {
				e.Pkt = n
			}
		default:
			dst, ok := ints[key]
			if !ok {
				return Event{}, fmt.Errorf("unknown field %q", f)
			}
			n, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil {
				return Event{}, fmt.Errorf("field %q: %w", f, perr)
			}
			*dst = n
		}
	}
	e.PacketNo = e.Seq / int64(mss)
	return e, nil
}

// Normalize rounds an event's timestamps to the encoding's microsecond
// normal form, so freshly-recorded events compare exactly against decoded
// goldens.
func Normalize(e Event) Event {
	e.At = roundMicro(e.At)
	e.RTO = roundMicro(e.RTO)
	e.Deadline = roundMicro(e.Deadline)
	return e
}

// NormalizeEvents applies Normalize to a copy of the slice.
func NormalizeEvents(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		out[i] = Normalize(e)
	}
	return out
}

// roundMicro rounds to microsecond precision; negative values (the idle-
// timer sentinel) collapse to -1µs, matching the "-" encoding.
func roundMicro(d time.Duration) time.Duration {
	if d < 0 {
		return -time.Microsecond
	}
	return (d + 500*time.Nanosecond) / time.Microsecond * time.Microsecond
}

// encodeDuration renders a duration as whole seconds and microseconds
// ("12.345678"); negative durations (idle timers) render as "-".
func encodeDuration(d time.Duration) string {
	if d < 0 {
		return "-"
	}
	us := int64(roundMicro(d) / time.Microsecond)
	return fmt.Sprintf("%d.%06d", us/1e6, us%1e6)
}

// decodeDuration parses encodeDuration's output exactly.
func decodeDuration(s string) (time.Duration, error) {
	if s == "-" {
		return -time.Microsecond, nil
	}
	sec, frac, ok := strings.Cut(s, ".")
	if !ok || len(frac) != 6 {
		return 0, fmt.Errorf("malformed duration %q", s)
	}
	secs, err := strconv.ParseInt(sec, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed duration %q: %w", s, err)
	}
	us, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed duration %q: %w", s, err)
	}
	return time.Duration(secs)*time.Second + time.Duration(us)*time.Microsecond, nil
}
