// Package tcp implements the transport endpoints of the study: a bulk-data
// sender (slow start, congestion avoidance, fast retransmit, coarse-clock
// Jacobson/Karels RTT estimation, Karn backoff) in four variants — Tahoe,
// the paper's TCP, and Reno, NewReno and SACK as ablations — and a
// cumulative-ACK sink.
//
// The sender is one state machine with two hosts. Its transitions
// (machine.go) run on a State value against a read-only Config and reach
// their surroundings only through a Host: Sender is the host of the
// object-per-connection engines (a sim.Timer, the packet pool, Stats and
// a state hook), and internal/cell runs the same transitions in place on
// a slab of States behind its timer wheel and calendar.
//
// The sender also implements the paper's two control-message responses:
//
//   - EBSN (Explicit Bad State Notification): re-arm the retransmission
//     timer with the *current* timeout value, leaving the RTT estimate and
//     backoff untouched — the appendix's set_rtx_timer() call.
//   - ICMP source quench: collapse the congestion window to one segment
//     without touching the timer (RFC 1122 §4.2.3.9 behaviour), the
//     comparator the paper shows does not prevent timeouts.
//
// The implementation is segment-based with byte windows, mirroring the ns
// Tahoe module the paper used: on a timeout — and, under Tahoe, on a third
// duplicate ACK — the sender sets snd_nxt back to snd_una and slow-starts
// (go-back-N driven by cumulative ACKs).
package tcp

import (
	"errors"
	"fmt"

	"wtcp/internal/units"
)

// Variant selects the congestion-control flavour.
type Variant int

// Variants.
const (
	// Tahoe is the paper's TCP: loss (timeout or 3 dupacks) collapses
	// cwnd to one segment and re-enters slow start.
	Tahoe Variant = iota + 1
	// Reno adds fast recovery (cwnd halving with window inflation on
	// duplicate ACKs). Not used in the paper's experiments; provided as
	// an ablation.
	Reno
	// NewReno extends Reno with partial-ACK handling: a new ACK that does
	// not cover the whole pre-loss window retransmits the next missing
	// segment immediately instead of leaving fast recovery, repairing
	// multi-loss windows without timeouts.
	NewReno
	// SACKVariant is NewReno recovery plus the selective-acknowledgment
	// scoreboard: go-back-N passes skip ranges the receiver already holds.
	// Selecting it implies Config.SACK (and the sink must EnableSACK).
	SACKVariant
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Tahoe:
		return "tahoe"
	case Reno:
		return "reno"
	case NewReno:
		return "newreno"
	case SACKVariant:
		return "sack"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant resolves a wire name ("tahoe", "reno", "newreno", "sack")
// to a Variant.
func ParseVariant(name string) (Variant, error) {
	for _, v := range []Variant{Tahoe, Reno, NewReno, SACKVariant} {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("tcp: unknown variant %q (want tahoe, reno, newreno, or sack)", name)
}

// FastRecovery reports whether the variant inflates the window on
// duplicate ACKs instead of collapsing to one segment (Reno and its
// descendants).
func (v Variant) FastRecovery() bool {
	return v == Reno || v == NewReno || v == SACKVariant
}

// PartialAckRetransmit reports whether a partial ACK during fast recovery
// retransmits the next hole immediately and stays in recovery (NewReno
// and SACK) instead of deflating out (plain Reno).
func (v Variant) PartialAckRetransmit() bool {
	return v == NewReno || v == SACKVariant
}

// Scoreboard reports whether the variant keeps a SACK scoreboard.
func (v Variant) Scoreboard() bool { return v == SACKVariant }

// DupAckThreshold is the fast-retransmit trigger (three duplicate ACKs).
const DupAckThreshold = 3

// Config parameterizes a sender.
type Config struct {
	// MSS is the TCP payload per segment: the paper's "packet size" minus
	// the 40-byte header.
	MSS units.ByteSize
	// Window is the receiver's advertised window (4 KB in the paper's WAN
	// runs, 64 KB in the LAN runs). The send window is min(cwnd, Window).
	Window units.ByteSize
	// Total is the number of payload bytes to transfer (100 KB WAN, 4 MB
	// LAN).
	Total units.ByteSize
	// Variant selects Tahoe (default), Reno, NewReno or SACKVariant.
	Variant Variant
	// Streaming makes the sender start with no data available; a relay
	// (e.g. the split-connection base station) grants bytes with
	// MakeAvailable as they arrive from upstream. When false the whole
	// transfer is available immediately.
	Streaming bool
	// SACK enables the selective-acknowledgment scoreboard: go-back-N
	// retransmission passes skip byte ranges the receiver has already
	// acknowledged selectively. Pair with Sink.EnableSACK. An ablation —
	// the paper's TCP predates SACK.
	SACK bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MSS <= 0:
		return errors.New("tcp: MSS must be positive")
	case c.Window < c.MSS:
		return errors.New("tcp: window smaller than one segment")
	case c.Total <= 0:
		return errors.New("tcp: nothing to send")
	default:
		return nil
	}
}

// WithDefaults fills unset optional fields: the form the transitions read.
func (c Config) WithDefaults() Config {
	if c.Variant == 0 {
		c.Variant = Tahoe
	}
	if c.Variant.Scoreboard() {
		c.SACK = true
	}
	return c
}

// Stats accumulates sender-side counters for the paper's metrics.
type Stats struct {
	// SegmentsSent counts every Data segment handed to the network,
	// including retransmissions.
	SegmentsSent uint64
	// BytesSent counts network-layer bytes sent (payload + header),
	// including retransmissions — the denominator of goodput.
	BytesSent units.ByteSize
	// RetransSegments and RetransBytes count retransmissions only
	// (RetransBytes is the paper's "data retransmitted" series, network-
	// layer bytes).
	RetransSegments uint64
	RetransBytes    units.ByteSize
	// Timeouts counts retransmission-timer expiries.
	Timeouts uint64
	// FastRetransmits counts third-dupack triggers.
	FastRetransmits uint64
	// EBSNResets counts timer re-arms caused by EBSN messages.
	EBSNResets uint64
	// Quenches counts ICMP source-quench messages processed.
	Quenches uint64
	// ECNResponses counts window halvings triggered by ECN echoes.
	ECNResponses uint64
	// SACKSkippedSegments counts retransmissions avoided because the
	// scoreboard showed the receiver already held the data.
	SACKSkippedSegments uint64
	// AcksReceived and DupAcksReceived count inbound ACK processing.
	AcksReceived    uint64
	DupAcksReceived uint64
}

// StateKind names a sender transition (see Transition).
type StateKind int

// Transition kinds.
const (
	// StateSend is a segment emission (fresh or retransmission).
	StateSend StateKind = iota + 1
	// StateAck is the processing of one inbound cumulative ACK.
	StateAck
	// StateTimeout is a retransmission-timer expiry with data outstanding.
	StateTimeout
	// StateFastRetx is a third-duplicate-ACK fast retransmit.
	StateFastRetx
	// StateEBSN is the processing of an EBSN control message.
	StateEBSN
	// StateQuench is the processing of an ICMP source quench.
	StateQuench
	// StateECN is an ECN congestion echo that halved the window.
	StateECN
	// StateSACKSkip is a rewound pass stepping over a segment the
	// scoreboard shows delivered: a retransmission avoided, told to the
	// Host for its counters and to nobody else (the state hook never sees
	// it).
	StateSACKSkip
)

// AckClass classifies an inbound cumulative ACK.
type AckClass int

// ACK classes. Zero is no class (an event that carries no ACK); the
// values are written into golden traces, so they never move.
const (
	_ AckClass = iota
	// AckNew advances snd_una.
	AckNew
	// AckDup equals snd_una with data outstanding (a duplicate).
	AckDup
	// AckOld is below snd_una (stale; ignored).
	AckOld
	// AckInvalid acknowledges data never sent (dropped per RFC 793).
	AckInvalid
)

// Transition is one sender transition as the transitions report it to
// their Host: what happened and the transition's own operands.
type Transition struct {
	// Kind names the transition.
	Kind StateKind
	// Seq and Payload describe the segment involved (sends); Retransmit
	// marks a resend of previously transmitted data.
	Seq        int64
	Payload    units.ByteSize
	Retransmit bool
	// AckNo and AckClass describe the inbound ACK (StateAck only).
	AckNo    int64
	AckClass AckClass
}
