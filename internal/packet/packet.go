// Package packet defines the network-layer packet model shared by the
// links, the TCP endpoints, and the base station.
//
// The model follows the paper's setup: TCP segments carry a 40-byte
// TCP/IP header; the base station fragments wired-side packets into
// wireless-MTU-sized fragments; control packets (link-level ACKs, EBSN,
// ICMP source quench) are small and header-only.
package packet

import (
	"fmt"
	"time"

	"wtcp/internal/units"
)

// HeaderSize is the combined TCP/IP header size used throughout the paper.
const HeaderSize units.ByteSize = 40

// ControlSize is the on-wire size of control packets (link ACK, EBSN,
// source quench): header-only.
const ControlSize units.ByteSize = HeaderSize

// SACKBlock is one contiguous received byte range [Start, End).
type SACKBlock struct {
	Start int64
	End   int64
}

// MaxSACKBlocks bounds the blocks carried per acknowledgment (RFC 2018's
// option-space limit is three when timestamps are in use).
const MaxSACKBlocks = 3

// Kind discriminates packet types.
type Kind int

// Packet kinds.
const (
	// Data is a TCP data segment.
	Data Kind = iota + 1
	// Ack is a TCP cumulative acknowledgment.
	Ack
	// Fragment is an IP fragment of a Data segment, produced by the base
	// station for the wireless hop.
	Fragment
	// LinkAck is a link-level acknowledgment for one fragment or segment,
	// used by the base station's local-recovery ARQ.
	LinkAck
	// EBSN is an Explicit Bad State Notification from the base station to
	// the TCP source (the paper's contribution; an ICMP-style message).
	EBSN
	// SourceQuench is an ICMP source quench from the base station to the
	// TCP source (the paper's negative-result comparator).
	SourceQuench
)

var kindNames = map[Kind]string{
	Data:         "DATA",
	Ack:          "ACK",
	Fragment:     "FRAG",
	LinkAck:      "LACK",
	EBSN:         "EBSN",
	SourceQuench: "QUENCH",
}

// String returns the short uppercase name used in traces.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Packet is one network-layer packet, passed by pointer along the data
// path.
//
// Lifetime. Non-test code takes packets from IDGen.New, which draws them
// from the run's Pool when the generator has one. Such a packet is
// reference-counted: it starts with one reference, a component that
// stores the pointer beside another holder (the ARQ entry that keeps a
// unit while the same unit is in flight) takes one more with Retain, and
// whoever is last to finish with it calls Release. Handing a packet to
// the next stage (Link.Send, a deliver callback, a Receive method) hands
// over the caller's reference with it. The last Release zeroes the
// packet — a stale reader sees ID 0 and Kind 0 — and returns it to the
// pool for the next New; DESIGN.md §"Packet lifetime" lists every holder
// and every release point.
//
// A packet that did not come from a pool (a struct literal in a test, a
// by-value copy such as the fault injector's duplicates, anything from a
// pool-less IDGen) is legal everywhere: Retain and Release do nothing on
// it and the garbage collector reclaims it, so a caller that never
// releases loses only the recycling.
//
// A packet must not be mutated after it is sent, except by the hop that
// currently owns it (a queue setting the CE mark); retransmissions by
// the TCP source are fresh packets so traces can tell copies apart.
type Packet struct {
	// ID uniquely identifies this packet instance within a simulation run.
	ID uint64
	// Kind discriminates the fields below.
	Kind Kind
	// Conn identifies the TCP connection in multi-connection scenarios
	// (zero in the single-connection experiments).
	Conn int

	// Seq is the sequence number of the first payload byte (Data,
	// Fragment) or is unused (other kinds).
	Seq int64
	// Payload is the number of TCP payload bytes carried (Data, Fragment).
	Payload units.ByteSize
	// AckNo is the cumulative acknowledgment: the next byte expected by
	// the receiver (Ack), or the fragment/segment being link-acked
	// (LinkAck, where it holds the acked packet's ID).
	AckNo int64

	// Retransmit marks a TCP-source retransmission of previously sent
	// data. Karn's algorithm uses it to skip RTT sampling.
	Retransmit bool

	// CongestionMarked is the ECN CE bit: set by a congested queue on a
	// Data packet, echoed by the receiver on the corresponding Ack.
	CongestionMarked bool

	// SACK carries selective-acknowledgment blocks on an Ack (RFC 2018):
	// byte ranges above AckNo the receiver already holds. Nil when the
	// connection does not negotiate SACK.
	SACK []SACKBlock

	// FragOf is the ID of the original Data segment a Fragment belongs
	// to; FragIndex/FragCount locate it within the fragment train.
	FragOf    uint64
	FragIndex int
	FragCount int

	// LinkSeq is the link-level sequence number a local-recovery ARQ
	// assigns to each unit it manages, so the receiver can restore
	// in-sequence delivery after out-of-order retransmissions. Zero means
	// "not sequenced" (no reordering applied).
	LinkSeq int64

	// SentAt is stamped by the sending agent when the packet enters its
	// outbound link, for tracing and RTT measurement.
	SentAt time.Duration

	// Pool bookkeeping (see pool.go), zero on packets no pool handed out.
	// self is the packet's own address: a by-value copy keeps the
	// original's, which is how the copy is known not to be pooled.
	home *Pool
	self *Packet
	refs int32
}

// Size reports the packet's on-wire size at the network layer: header plus
// payload for Data segments, the raw chunk size for Fragments (a fragment
// is a link-level slice of the whole segment, so the original header bytes
// are already inside Payload), and header-only for control kinds.
func (p *Packet) Size() units.ByteSize {
	switch p.Kind {
	case Data:
		return HeaderSize + p.Payload
	case Fragment:
		return p.Payload
	default:
		return ControlSize
	}
}

// End reports the sequence number one past the last payload byte.
func (p *Packet) End() int64 { return p.Seq + int64(p.Payload) }

// IsControl reports whether the packet is a control message (no TCP
// payload and no TCP ack semantics at the transport layer).
func (p *Packet) IsControl() bool {
	return p.Kind == LinkAck || p.Kind == EBSN || p.Kind == SourceQuench
}

// IsNotification reports whether the packet is a bad-state notification
// travelling toward the source (an EBSN or an ICMP source quench).
func (p *Packet) IsNotification() bool {
	return p.Kind == EBSN || p.Kind == SourceQuench
}

// String renders a one-line summary for traces and test failures.
func (p *Packet) String() string {
	switch p.Kind {
	case Data:
		r := ""
		if p.Retransmit {
			r = " rtx"
		}
		return fmt.Sprintf("DATA id=%d seq=%d len=%d%s", p.ID, p.Seq, p.Payload, r)
	case Ack:
		return fmt.Sprintf("ACK id=%d ackno=%d", p.ID, p.AckNo)
	case Fragment:
		return fmt.Sprintf("FRAG id=%d of=%d %d/%d seq=%d len=%d",
			p.ID, p.FragOf, p.FragIndex+1, p.FragCount, p.Seq, p.Payload)
	case LinkAck:
		return fmt.Sprintf("LACK id=%d for=%d", p.ID, p.AckNo)
	default:
		return fmt.Sprintf("%s id=%d", p.Kind, p.ID)
	}
}

// IDGen allocates packet IDs unique within one simulation run, and is
// the handle through which every packet creator reaches the run's Pool.
// The zero value is ready to use and has no pool: its packets are plain
// heap allocations.
type IDGen struct {
	next uint64
	pool *Pool
}

// NewIDGen returns a generator whose packets are drawn from pool (nil
// means no pool, like the zero value).
func NewIDGen(pool *Pool) *IDGen { return &IDGen{pool: pool} }

// Next returns a fresh ID (starting at 1, so the zero ID means "unset").
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// New returns a packet of the given kind with a fresh ID, every other
// field zero, and one reference owned by the caller.
func (g *IDGen) New(kind Kind) *Packet {
	p := g.pool.get()
	p.ID = g.Next()
	p.Kind = kind
	return p
}
