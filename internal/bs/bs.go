// Package bs implements the base station — the gateway between the wired
// and wireless halves of the paper's topology — in all the forwarding
// modes the paper studies:
//
//   - Basic: plain store-and-forward (fragment and transmit; no recovery).
//     Every wireless loss is left to end-to-end TCP.
//   - LocalRecovery: per-unit link-level ARQ with random retransmission
//     backoff and an RTmax attempt cap followed by a whole-packet discard
//     — the [Bhagwat 95]-style "aggressive retransmission with packet
//     discards" protocol the paper adopts (RTmax = 13, from CDPD).
//   - EBSN: LocalRecovery plus an Explicit Bad State Notification sent to
//     the TCP source after *every* unsuccessful transmission attempt, so
//     the source keeps pushing its retransmission timer back instead of
//     timing out while the base station is still recovering locally.
//   - SourceQuench: LocalRecovery plus an ICMP source quench per failed
//     attempt — the comparator the paper shows cannot prevent timeouts
//     (it throttles new data but does not touch the timer).
//   - Snoop: a simplified transport-aware snoop agent [Balakrishnan 95]
//     as a related-work baseline: caches data packets, retransmits
//     locally on duplicate ACKs (suppressing them toward the source) or
//     on a local persistence timer; no link-level acknowledgments.
//
// None of the schemes except Snoop keeps per-connection transport state —
// the paper's headline operational advantage.
package bs

import (
	"errors"
	"fmt"
	"time"

	"wtcp/internal/ip"
	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Scheme selects the base station's forwarding behaviour.
type Scheme int

// Schemes.
const (
	Basic Scheme = iota + 1
	LocalRecovery
	EBSN
	SourceQuench
	Snoop
	// SplitConnection is the I-TCP baseline [Bakre & Badrinath 94]: the
	// connection is split at the base station into a wired TCP and an
	// independent wireless TCP. It is a topology change, implemented by
	// internal/core's wiring rather than by BaseStation (which rejects
	// it); the constant lives here so every scheme shares one namespace.
	SplitConnection
)

var schemeNames = map[Scheme]string{
	Basic:           "basic",
	LocalRecovery:   "localrecovery",
	EBSN:            "ebsn",
	SourceQuench:    "sourcequench",
	Snoop:           "snoop",
	SplitConnection: "split",
}

// String names the scheme as used by the CLI tools.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme converts a CLI name into a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	valid := make([]string, 0, len(schemeNames))
	for _, s := range Schemes() {
		valid = append(valid, s.String())
	}
	return 0, fmt.Errorf("bs: unknown scheme %q (want one of %v)", name, valid)
}

// Schemes lists all supported schemes in presentation order.
func Schemes() []Scheme {
	return []Scheme{Basic, LocalRecovery, EBSN, SourceQuench, Snoop, SplitConnection}
}

// UsesLinkAcks reports whether the scheme requires the mobile host to send
// link-level acknowledgments.
func (s Scheme) UsesLinkAcks() bool {
	switch s {
	case LocalRecovery, EBSN, SourceQuench:
		return true
	default:
		return false
	}
}

// ARQConfig parameterizes the local-recovery link protocol.
type ARQConfig struct {
	// RTmax is the number of successive retransmissions allowed before
	// the packet is discarded (13 in CDPD and in the paper).
	RTmax int
	// Window is the number of link units (fragments) that may be
	// outstanding at once; pipelining keeps the radio busy so local
	// recovery does not itself cost throughput.
	Window int
	// BackoffMax bounds the uniform random retransmission backoff drawn
	// after each unsuccessful attempt.
	BackoffMax time.Duration
}

// Default ARQ values; the BackoffMax default suits the WAN radio
// (fragment ~80 ms on air, link ack ~25 ms).
const (
	DefaultRTmax      = 13
	DefaultARQWindow  = 4
	DefaultBackoffMax = 300 * time.Millisecond
)

// WithDefaults fills unset fields with the package defaults.
func (c ARQConfig) WithDefaults() ARQConfig {
	if c.RTmax <= 0 {
		c.RTmax = DefaultRTmax
	}
	if c.Window <= 0 {
		c.Window = DefaultARQWindow
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	return c
}

// AckDeadline is how long after a unit finishes transmitting the base
// station waits for its link-level ack before declaring the attempt
// unsuccessful, derived from the radio's timing: both propagation delays
// and the ack's serialization, plus slack of four more ack times and
// 20 ms for an ack-path queue (a TCP ack ahead of the link ack on the
// uplink). The radio is symmetric: the downlink stands for the uplink.
func AckDeadline(radio *link.Link) time.Duration {
	return 2*radio.Delay() + 5*radio.TxTime(packet.ControlSize) + 20*time.Millisecond
}

// The snoop baseline's parameters. SnoopTimeout is the persistence timer
// for the oldest cached, unacknowledged segment; SnoopMaxCached bounds
// the cache in segments. SnoopMaxRetx is the ARQ-style attempt cap: once
// a cached copy has been locally retransmitted this many times it is
// evicted and the fixed host's own recovery takes over (dupacks for it
// are forwarded again); a fresh copy from the source restarts the count.
// The cap mirrors the ARQ RTmax so the two local-recovery schemes give up
// after comparable persistence.
const (
	SnoopTimeout   = 800 * time.Millisecond
	SnoopMaxCached = 64
	SnoopMaxRetx   = DefaultRTmax
)

// Config parameterizes a base station.
type Config struct {
	// Scheme selects the forwarding behaviour.
	Scheme Scheme
	// MTU is the wireless link MTU; data packets larger than it are
	// fragmented. Zero disables fragmentation (the paper's LAN setup).
	MTU units.ByteSize
	// QueueLimit bounds the number of data packets the base station will
	// hold for the wireless link (beyond it, tail drop).
	QueueLimit int
	// ARQ configures local recovery (used by LocalRecovery, EBSN,
	// SourceQuench).
	ARQ ARQConfig
	// NotifyEvery sends the EBSN/quench control message only on every
	// Nth unsuccessful attempt (default 1 = the paper's "after every
	// unsuccessful attempt"). An ablation knob: sparser notifications
	// save reverse-channel bandwidth but risk source timeouts between
	// them.
	NotifyEvery int
}

// Stats counts base-station activity.
type Stats struct {
	// DataIn counts data packets accepted from the wired side; DataDropped
	// counts those refused because the hold queue was full.
	DataIn      uint64
	DataDropped uint64
	// AcksForwarded counts TCP acks relayed from the mobile host to the
	// fixed host.
	AcksForwarded uint64
	// ARQAttempts counts link-unit transmissions (first tries and
	// retries); ARQTimeouts counts unsuccessful attempts; ARQDiscards
	// counts whole packets abandoned after RTmax.
	ARQAttempts uint64
	ARQTimeouts uint64
	ARQDiscards uint64
	// LinkAcks counts link-level acknowledgments received.
	LinkAcks uint64
	// EBSNsSent and QuenchesSent count control messages emitted toward
	// the source.
	EBSNsSent    uint64
	QuenchesSent uint64
	// SnoopLocalRetx counts snoop-triggered local retransmissions;
	// SnoopSuppressedDupAcks counts dupacks absorbed at the base station;
	// SnoopEvictions counts cached copies dropped at the local
	// retransmission cap.
	SnoopLocalRetx         uint64
	SnoopSuppressedDupAcks uint64
	SnoopEvictions         uint64
	// Crashes counts injected crash/restart cycles; CrashLostPackets
	// counts data packets whose forwarding state died with a crash
	// (in-recovery, pending, or queued on the downlink); CrashDiscards
	// counts packets dropped at the station's doors while it was down.
	Crashes          uint64
	CrashLostPackets uint64
	CrashDiscards    uint64
	// HeldPeak is the most data packets held under local recovery at once
	// (at most QueueLimit); SnoopCachePeak the most segments in the snoop
	// cache at once (at most SnoopMaxCached).
	HeldPeak       int
	SnoopCachePeak int
}

// Hooks are optional base-station observation points; any field may be
// nil. They exist for the conformance tracer and for tests, and must not
// mutate station state. All fire synchronously inside the transition they
// describe.
type Hooks struct {
	// OnARQAttempt fires when a link unit is put on the air (first tries
	// and retries). unit is the unit's packet ID, pkt the network packet it
	// belongs to, attempt the 1-based transmission count.
	OnARQAttempt func(unit, pkt uint64, attempt int)
	// OnARQFailure fires when an attempt's acknowledgment timer expires —
	// the "unsuccessful attempt" that triggers source notification.
	OnARQFailure func(unit, pkt uint64, attempt int)
	// OnARQAck fires when a link-level acknowledgment completes a unit.
	OnARQAck func(unit, pkt uint64)
	// OnARQDiscard fires when a whole network packet is withdrawn after
	// RTmax retransmissions.
	OnARQDiscard func(pkt uint64)
	// OnNotify fires for every control message emitted toward a source
	// (packet.EBSN or packet.SourceQuench).
	OnNotify func(kind packet.Kind, conn int)
	// OnSnoopAdmit fires when the snoop agent caches a downlink data
	// segment (including a replacement copy from the source).
	OnSnoopAdmit func(seq int64)
	// OnSnoopRetx fires for every snoop local retransmission; attempt is
	// the 1-based count for the current cached copy.
	OnSnoopRetx func(seq int64, attempt int)
	// OnSnoopSuppress fires when a duplicate ACK is absorbed at the base
	// station instead of being forwarded to the fixed host.
	OnSnoopSuppress func(ackNo int64)
	// OnSnoopEvict fires when a cached copy is dropped at the local
	// retransmission cap.
	OnSnoopEvict func(seq int64)
}

// BaseStation is the gateway agent. Create with New, then deliver packets
// arriving from the wired side via FromWired and from the wireless side
// via FromWireless.
type BaseStation struct {
	sim     *sim.Simulator
	cfg     Config
	ids     *packet.IDGen
	rng     *sim.RNG
	down    *link.Link             // BS -> MH
	toWired func(p *packet.Packet) // BS -> FH (reverse wired hop)

	frag *ip.Fragmenter // nil when cfg.MTU == 0
	// unitBuf is the scratch buffer units() fills; its contents are
	// consumed (queued or sent) before the next packet is admitted.
	unitBuf []*packet.Packet

	arq   *arqEngine  // non-nil for recovery schemes
	snoop *snoopAgent // non-nil for Snoop

	// failuresSinceNotify implements Config.NotifyEvery.
	failuresSinceNotify int

	hooks Hooks

	// downed marks the station as crashed: all traffic is dropped at its
	// doors until Restart.
	downed bool

	stats Stats
}

// New wires a base station. down is the wireless downlink toward the
// mobile host; toWired emits packets toward the fixed host. rng drives the
// random ARQ backoff.
func New(s *sim.Simulator, cfg Config, ids *packet.IDGen, rng *sim.RNG, down *link.Link, toWired func(*packet.Packet)) (*BaseStation, error) {
	if down == nil {
		return nil, errors.New("bs: nil downlink")
	}
	if toWired == nil {
		return nil, errors.New("bs: nil wired output")
	}
	if cfg.MTU < 0 {
		return nil, errors.New("bs: negative MTU")
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = Basic
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 50
	}
	if cfg.NotifyEvery <= 0 {
		cfg.NotifyEvery = 1
	}
	b := &BaseStation{
		sim:     s,
		cfg:     cfg,
		ids:     ids,
		rng:     rng,
		down:    down,
		toWired: toWired,
	}
	if cfg.MTU > 0 {
		f, err := ip.NewFragmenter(cfg.MTU, ids)
		if err != nil {
			return nil, err
		}
		b.frag = f
	}
	switch cfg.Scheme {
	case LocalRecovery, EBSN, SourceQuench:
		if rng == nil {
			return nil, errors.New("bs: recovery schemes need an RNG for backoff")
		}
		b.arq = newARQEngine(b, cfg.ARQ.WithDefaults())
	case Snoop:
		b.snoop = newSnoopAgent(b)
	case SplitConnection:
		return nil, errors.New("bs: split connection is a topology change; use the core scenario wiring")
	}
	return b, nil
}

// Stats returns a copy of the counters.
func (b *BaseStation) Stats() Stats { return b.stats }

// SetHooks installs observation callbacks. Call before traffic flows.
func (b *BaseStation) SetHooks(h Hooks) { b.hooks = h }

// Scheme reports the configured scheme.
func (b *BaseStation) Scheme() Scheme { return b.cfg.Scheme }

// Backlog reports the number of data packets held for the wireless link
// (queued plus in recovery), the quantity the quench policy watches.
func (b *BaseStation) Backlog() int {
	switch {
	case b.arq != nil:
		return b.arq.backlogPackets()
	case b.snoop != nil:
		return b.down.QueueLen()
	default:
		return b.down.QueueLen()
	}
}

// SnoopCacheLen reports the number of segments in the snoop cache (zero
// for non-snoop schemes) — the occupancy the property tests drain to
// zero.
func (b *BaseStation) SnoopCacheLen() int {
	if b.snoop == nil {
		return 0
	}
	return len(b.snoop.cache)
}

// Crash simulates a base-station failure: every piece of soft state —
// ARQ windows, retry timers, the snoop cache, packets queued for the
// radio — is lost, and until Restart the station drops whatever arrives
// at either interface. It returns the number of data packets whose
// forwarding state died with the crash; their recovery is end-to-end
// TCP's problem, exactly the blackout-style fault that dominates real
// deployments. Crashing an already-down station is a no-op.
func (b *BaseStation) Crash() int {
	if b.downed {
		return 0
	}
	b.downed = true
	b.stats.Crashes++
	lost := b.Flush()
	b.stats.CrashLostPackets += uint64(lost)
	return lost
}

// Flush drops the station's per-cell soft state — packets queued for the
// radio, ARQ windows and retry timers, the snoop cache — and returns the
// number of data packets whose forwarding state went with it. A crash
// flushes, and so does a handoff that takes the mobile host out of the
// cell; unlike a crash, a flush leaves the station running.
func (b *BaseStation) Flush() int {
	lost := b.down.DropQueued()
	if b.arq != nil {
		lost += b.arq.reset()
	}
	if b.snoop != nil {
		lost += b.snoop.reset()
	}
	return lost
}

// Restart brings a crashed station back with empty state (a reboot, not a
// resume). Restarting a live station is a no-op.
func (b *BaseStation) Restart() { b.downed = false }

// Down reports whether the station is crashed.
func (b *BaseStation) Down() bool { return b.downed }

// FromWired accepts a packet arriving over the wired link from the fixed
// host (data segments, in this study), taking over the caller's
// reference.
func (b *BaseStation) FromWired(p *packet.Packet) {
	if b.downed {
		b.stats.CrashDiscards++
		p.Release()
		return
	}
	if p.Kind != packet.Data {
		// Nothing else flows FH->MH in this study; drop silently.
		p.Release()
		return
	}
	switch {
	case b.arq != nil:
		if !b.arq.admit(p) {
			b.stats.DataDropped++
			p.Release()
			return
		}
		b.stats.DataIn++
	case b.snoop != nil:
		b.stats.DataIn++
		b.snoop.admit(p)
	default: // Basic
		b.stats.DataIn++
		b.forwardBasic(p)
	}
}

// forwardBasic fragments and streams a data packet onto the downlink with
// no recovery.
func (b *BaseStation) forwardBasic(p *packet.Packet) {
	for _, u := range b.units(p) {
		b.down.Send(u)
	}
}

// units converts a data packet into the link units transmitted over the
// wireless hop, consuming the caller's reference to p: MTU fragments when
// fragmentation is on (p itself is then finished with), the packet itself
// otherwise. The result lives in unitBuf and is valid until the next
// call.
func (b *BaseStation) units(p *packet.Packet) []*packet.Packet {
	if b.frag == nil {
		b.unitBuf = append(b.unitBuf[:0], p)
		return b.unitBuf
	}
	b.unitBuf = b.frag.AppendFragments(b.unitBuf[:0], p)
	p.Release()
	return b.unitBuf
}

// FromWireless accepts a packet arriving over the wireless uplink from the
// mobile host — TCP acks and link-level acks — taking over the caller's
// reference.
func (b *BaseStation) FromWireless(p *packet.Packet) {
	if b.downed {
		b.stats.CrashDiscards++
		p.Release()
		return
	}
	switch p.Kind {
	case packet.Ack:
		if b.snoop == nil || !b.snoop.filterAck(p) {
			b.stats.AcksForwarded++
			b.toWired(p)
			return
		}
		// A suppressed dupack ends here.
	case packet.LinkAck:
		b.stats.LinkAcks++
		if b.arq != nil {
			b.arq.onLinkAck(uint64(p.AckNo))
		}
	}
	p.Release()
}

// ReleaseAll gives up every packet reference the station holds (units
// pending or in local recovery). It is the end-of-run teardown; the
// station must not carry traffic afterwards.
func (b *BaseStation) ReleaseAll() {
	if b.arq != nil {
		b.arq.reset()
	}
}

// notifyFailureAll emits the per-failed-attempt control message to every
// held-up source: the failing unit's connection first, then the other
// connections in heldUp, which must be in ascending order — emission
// order fixes packet IDs and reverse-queue order, so it may not depend on
// map iteration. With a single connection this reduces exactly to the
// paper's "notify the source". The addresses come from the packets
// themselves — still no per-connection transport state at the base
// station.
func (b *BaseStation) notifyFailureAll(failing int, heldUp []int) {
	// The NotifyEvery thinning applies per failure *event*; the fan-out
	// to held-up sources happens for each event that passes the filter.
	b.failuresSinceNotify++
	if b.failuresSinceNotify < b.cfg.NotifyEvery {
		return
	}
	b.failuresSinceNotify = 0

	b.emitNotification(failing)
	for _, conn := range heldUp {
		if conn != failing {
			b.emitNotification(conn)
		}
	}
}

// emitNotification sends one control message toward a source.
func (b *BaseStation) emitNotification(conn int) {
	var kind packet.Kind
	switch b.cfg.Scheme {
	case EBSN:
		kind = packet.EBSN
		b.stats.EBSNsSent++
	case SourceQuench:
		kind = packet.SourceQuench
		b.stats.QuenchesSent++
	default:
		return
	}
	if b.hooks.OnNotify != nil {
		b.hooks.OnNotify(kind, conn)
	}
	p := b.ids.New(kind)
	p.Conn = conn
	p.SentAt = b.sim.Now()
	b.toWired(p)
}
