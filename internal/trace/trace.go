// Package trace records the per-packet connection history the paper's
// Figures 3-5 visualize: every segment transmission plotted as (send time,
// packet number mod 90), with retransmissions appearing as repeated marks
// on the same horizontal line.
//
// The package renders the same data two ways: a CSV suitable for any
// plotting tool, and an ASCII scatter for terminal inspection.
package trace

import (
	"fmt"
	"strings"
	"time"

	"wtcp/internal/units"
)

// EventKind discriminates trace events.
type EventKind int

// Event kinds.
const (
	// Send is an original segment transmission.
	Send EventKind = iota + 1
	// Retransmit is a source retransmission of previously sent data.
	Retransmit
	// Timeout is a retransmission-timer expiry at the source.
	Timeout
	// FastRetx is a third-duplicate-ACK fast retransmit trigger.
	FastRetx
	// EBSNReset is a timer re-arm caused by an EBSN.
	EBSNReset
	// AckIn is the source's processing of one inbound cumulative ACK.
	AckIn
	// QuenchIn is the source's processing of an ICMP source quench.
	QuenchIn
	// ECNEcho is an ECN congestion echo acted on by the source.
	ECNEcho
	// ARQAttempt is a base-station link-unit transmission (try or retry).
	ARQAttempt
	// ARQFailure is a link-ack timeout: one unsuccessful attempt.
	ARQFailure
	// ARQAck is a link-level acknowledgment completing a unit.
	ARQAck
	// ARQDiscard is a whole-packet withdrawal after RTmax retransmissions.
	ARQDiscard
	// EBSNSent and QuenchSent are control messages emitted by the base
	// station toward the source.
	EBSNSent
	QuenchSent
	// MHDeliver is the mobile host handing a sequenced unit up in link
	// order; Unit carries the link sequence number.
	MHDeliver
	// SnoopAdmit is the Snoop agent caching one downlink segment.
	SnoopAdmit
	// SnoopRetx is a Snoop local retransmission toward the mobile host;
	// Attempt carries the 1-based per-segment retransmission count.
	SnoopRetx
	// SnoopSuppress is a duplicate ACK absorbed at the base station
	// instead of being forwarded to the fixed host; Ack carries the
	// cumulative acknowledgment number.
	SnoopSuppress
	// SnoopEvict is the Snoop agent dropping a cached segment after the
	// local retransmission cap; the fixed host's own recovery takes over.
	SnoopEvict
)

// kindNames maps kinds to their stable wire names (CSV, golden traces).
var kindNames = map[EventKind]string{
	Send:          "send",
	Retransmit:    "retransmit",
	Timeout:       "timeout",
	FastRetx:      "fastretx",
	EBSNReset:     "ebsn",
	AckIn:         "ackin",
	QuenchIn:      "quenchin",
	ECNEcho:       "ecnecho",
	ARQAttempt:    "arqattempt",
	ARQFailure:    "arqfailure",
	ARQAck:        "arqack",
	ARQDiscard:    "arqdiscard",
	EBSNSent:      "ebsnsent",
	QuenchSent:    "quenchsent",
	MHDeliver:     "mhdeliver",
	SnoopAdmit:    "snoopadmit",
	SnoopRetx:     "snoopretx",
	SnoopSuppress: "snoopsuppress",
	SnoopEvict:    "snoopevict",
}

// String names the kind for CSV and golden output.
func (k EventKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind converts a stable wire name back into a kind.
func ParseEventKind(name string) (EventKind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", name)
}

// PacketModulo is the paper's vertical-axis wraparound ("packet number mod
// 90").
const PacketModulo = 90

// Event is one recorded occurrence. The first three fields are the
// original Figure 3-5 scatter data (the paper's packet number is Seq over
// the MSS, which the Trace derives); the rest are the conformance fields
// the oracle layer checks (zero where a kind does not use them).
type Event struct {
	At   time.Duration
	Kind EventKind
	// Seq is the first byte offset of the segment involved (zero for
	// EBSN resets).
	Seq int64

	// Payload is the segment's payload bytes (sender transmissions).
	Payload int64
	// Ack and AckClass describe an inbound cumulative ACK (AckIn); the
	// class values mirror tcp.AckClass.
	Ack      int64
	AckClass int
	// Cwnd and Ssthresh are the sender's post-transition congestion state
	// in bytes; SndUna/SndNxt/SndMax its sequence pointers.
	Cwnd, Ssthresh         int64
	SndUna, SndNxt, SndMax int64
	// RTO is the current retransmission timeout; Deadline the timer's
	// absolute expiry (negative when idle).
	RTO      time.Duration
	Deadline time.Duration
	// Shift is the Karn backoff exponent; DupAcks the duplicate-ACK run.
	Shift   int
	DupAcks int
	// Attempt is the 1-based ARQ transmission count (ARQ events).
	Attempt int
	// Unit is the link unit's packet ID (ARQ events) or the link sequence
	// number (MHDeliver); Pkt the owning network packet's ID.
	Unit uint64
	Pkt  uint64
}

// Trace is the store: it retains the events of one connection for the
// Figure 3-5 renderings, the CSV and the golden encoding. A run feeds it
// from a Source (see Source.Store); Record appends by hand.
type Trace struct {
	mss    units.ByteSize
	events []Event
}

// New returns an empty trace for a connection with the given MSS (used to
// convert byte offsets into packet numbers).
func New(mss units.ByteSize) *Trace {
	if mss <= 0 {
		mss = 1
	}
	return &Trace{mss: mss}
}

// Record appends a bare event (the original Figure 3-5 fields only).
func (tr *Trace) Record(at time.Duration, kind EventKind, seq int64) {
	tr.events = append(tr.events, Event{At: at, Kind: kind, Seq: seq})
}

// packetNo is the paper's packet number of byte offset seq.
func (tr *Trace) packetNo(seq int64) int64 { return seq / int64(tr.mss) }

// Events returns the recorded events in order.
func (tr *Trace) Events() []Event {
	out := make([]Event, len(tr.events))
	copy(out, tr.events)
	return out
}

// Count reports how many events of the given kind were recorded.
func (tr *Trace) Count(kind EventKind) int {
	n := 0
	for _, e := range tr.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// SendsOf reports how many times the given packet number was put on the
// wire (1 = never retransmitted by the source).
func (tr *Trace) SendsOf(packetNo int64) int {
	n := 0
	for _, e := range tr.events {
		if (e.Kind == Send || e.Kind == Retransmit) && tr.packetNo(e.Seq) == packetNo {
			n++
		}
	}
	return n
}

// CSV renders the send/retransmit events as the paper's scatter data:
// time_sec,packet_mod_90,kind — one row per transmission.
func (tr *Trace) CSV() string {
	var b strings.Builder
	b.WriteString("time_sec,packet_mod_90,kind\n")
	for _, e := range tr.events {
		if e.Kind != Send && e.Kind != Retransmit {
			continue
		}
		fmt.Fprintf(&b, "%.3f,%d,%s\n", e.At.Seconds(), tr.packetNo(e.Seq)%PacketModulo, e.Kind)
	}
	return b.String()
}

// RenderASCII draws the scatter on a width x height character grid
// covering [0, horizon] seconds by [0, 90) packet numbers. Original sends
// draw '.', retransmissions 'o', and the x-axis is labeled in seconds.
func (tr *Trace) RenderASCII(width, height int, horizon time.Duration) string {
	if width < 20 {
		width = 20
	}
	if height < 10 {
		height = 10
	}
	if horizon <= 0 {
		horizon = time.Second
		for _, e := range tr.events {
			if e.At > horizon {
				horizon = e.At
			}
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, e := range tr.events {
		if e.Kind != Send && e.Kind != Retransmit {
			continue
		}
		if e.At > horizon {
			continue
		}
		x := int(float64(width-1) * float64(e.At) / float64(horizon))
		y := int(float64(height-1) * float64(tr.packetNo(e.Seq)%PacketModulo) / float64(PacketModulo-1))
		row := height - 1 - y // origin bottom-left, like the paper
		mark := byte('.')
		if e.Kind == Retransmit {
			mark = 'o'
		}
		// Retransmission marks win over plain sends at the same cell.
		if grid[row][x] == ' ' || mark == 'o' {
			grid[row][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "packet number mod %d (top=%d)  '.' send  'o' source retransmission\n",
		PacketModulo, PacketModulo-1)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " 0%*s\n", width-1, fmt.Sprintf("%.0fs", horizon.Seconds()))
	return b.String()
}
