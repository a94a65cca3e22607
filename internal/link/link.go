// Package link models point-to-point simplex links: a drop-tail queue, a
// serializing transmitter (one packet on the wire at a time), a propagation
// delay, and — for wireless links — a framing/FEC byte overhead and a
// burst-error channel that corrupts transmissions.
//
// The paper's two links are presets here: a wired link (56 kbps WAN /
// 10 Mbps LAN, error-free) and a wireless link (19.2 kbps raw with 1.5x
// overhead for the WAN — 12.8 kbps effective — or 2 Mbps with no overhead
// for the LAN). Corrupted transmissions are discarded at the receiver, as
// a CRC failure would be; the sender learns nothing (loss detection is the
// ARQ's or TCP's job).
package link

import (
	"errors"
	"math"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Stats counts link activity over a run.
type Stats struct {
	// Sent counts transmissions started (including ARQ retransmissions
	// handed to the link).
	Sent uint64
	// Delivered counts packets handed to the receiver.
	Delivered uint64
	// Corrupted counts transmissions discarded by the error channel.
	Corrupted uint64
	// QueueDrops counts packets refused by the outbound queue.
	QueueDrops uint64
	// BytesSent and BytesDelivered count network-layer bytes (before the
	// framing overhead multiplier).
	BytesSent      units.ByteSize
	BytesDelivered units.ByteSize
	// Injected counts deliveries that bypassed the transmitter entirely
	// (fault-injected duplicates and delayed releases); they are kept out
	// of Delivered so Delivered+Corrupted <= Sent stays an invariant.
	Injected uint64
	// ECNMarked counts packets that received the CE congestion mark.
	ECNMarked uint64
}

// Config parameterizes a link.
type Config struct {
	// Name labels the link in traces ("wired", "wireless-down", ...).
	Name string
	// Rate is the raw serialization rate.
	Rate units.BitRate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueLimit bounds the outbound queue in packets (0 = unbounded).
	QueueLimit int
	// Overhead multiplies network-layer bytes into on-air bytes to account
	// for framing, FEC, and synchronization (1.5 for the paper's WAN
	// radio). Zero means 1.0 (no overhead).
	Overhead float64
	// Channel is the error process; nil means error-free.
	Channel errmodel.Channel
	// ECNThreshold enables simple explicit congestion notification: a
	// Data packet admitted while the queue already holds at least this
	// many packets gets its CE bit set instead of the queue having to
	// drop to signal congestion [Floyd 94]. Zero disables marking.
	ECNThreshold int
	// RED, when non-nil, replaces the deterministic threshold with
	// Random Early Detection marking. Requires an RNG.
	RED *queue.REDConfig
}

func (c Config) validate() error {
	switch {
	case c.Rate <= 0:
		return errors.New("link: non-positive rate")
	case c.Delay < 0:
		return errors.New("link: negative delay")
	case c.Overhead < 0:
		return errors.New("link: negative overhead")
	default:
		return nil
	}
}

// Link is a simplex link. Create with New; the zero value is unusable.
type Link struct {
	sim       *sim.Simulator
	cfg       Config
	rng       *sim.RNG
	q         *queue.DropTail
	red       *queue.RED
	busy      bool
	deliver   func(*packet.Packet)
	onTxDone  func(*packet.Packet)
	intercept func(*packet.Packet) bool

	// The transmitter's event callbacks are pre-bound once (see New) so
	// the per-packet hot path — one tx-done event and one delivery event
	// per transmission — schedules no new closures. curP/curStart/curTx
	// describe the single transmission being serialized (the transmitter
	// is serial by construction); inflight is the FIFO of packets that
	// finished serializing and are crossing the propagation delay.
	// Deliveries are scheduled at strictly nondecreasing times with a
	// fixed delay, so the FIFO pop order matches the event order.
	txDoneFn  func()
	deliverFn func()
	curP      *packet.Packet
	curStart  time.Duration
	curTx     time.Duration
	curBits   int64
	inflight  []*packet.Packet

	// A link carries one or two packet sizes for a whole run, so the
	// serialization time and on-air bits of the last size seen are kept
	// instead of recomputed per transmission (same function, same input;
	// the zero values are what size 0 computes to).
	lastSize units.ByteSize
	lastTx   time.Duration
	lastBits int64

	stats Stats
}

// New builds a link that hands delivered packets to deliver. rng is used
// only for corruption draws and may be nil when cfg.Channel is nil.
func New(s *sim.Simulator, cfg Config, rng *sim.RNG, deliver func(*packet.Packet)) (*Link, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, errors.New("link: nil deliver callback")
	}
	if cfg.Channel != nil && rng == nil {
		return nil, errors.New("link: error channel requires an RNG")
	}
	if cfg.Overhead == 0 {
		cfg.Overhead = 1.0
	}
	l := &Link{
		sim:     s,
		cfg:     cfg,
		rng:     rng,
		q:       queue.New(cfg.QueueLimit),
		deliver: deliver,
	}
	if cfg.RED != nil {
		if rng == nil {
			return nil, errors.New("link: RED requires an RNG")
		}
		red, err := queue.NewRED(*cfg.RED)
		if err != nil {
			return nil, err
		}
		l.red = red
	}
	l.txDoneFn = l.txDone
	l.deliverFn = l.deliverNext
	return l, nil
}

// SetTxDoneHook installs a callback invoked the instant a transmission
// finishes serializing, whether or not the error channel corrupted it. ARQ
// implementations use it to start their acknowledgment timers at the
// correct moment (a queued packet must not age its timer while waiting for
// the transmitter). May be nil.
func (l *Link) SetTxDoneHook(fn func(*packet.Packet)) { l.onTxDone = fn }

// SetInterceptor installs a delivery-time intercept: fn runs after the
// propagation delay, immediately before the packet would be handed to the
// receiver, and returning false consumes the packet (the receiver never
// sees it; delivery counters are not incremented; the link releases its
// reference, so an interceptor that keeps the packet for later must
// Retain it first). Fault-injection layers use it for loss, duplication,
// and delay beyond what the error channel models. May be nil to remove.
func (l *Link) SetInterceptor(fn func(*packet.Packet) bool) { l.intercept = fn }

// Inject hands p — and the caller's reference to it — directly to the
// receiver, bypassing the queue, the transmitter, and the error channel,
// and counting it as delivered. Fault injectors use it to re-deliver
// duplicated packets or release delayed ones; it is also the natural seam
// for replaying captured traffic.
func (l *Link) Inject(p *packet.Packet) {
	l.stats.Injected++
	l.deliver(p)
}

// Name reports the configured label.
func (l *Link) Name() string { return l.cfg.Name }

// TxTime reports the serialization time for size network-layer bytes,
// including the framing overhead.
func (l *Link) TxTime(size units.ByteSize) time.Duration {
	onAir := units.ByteSize(math.Ceil(float64(size) * l.cfg.Overhead))
	return units.TransmissionTime(onAir, l.cfg.Rate)
}

// Delay reports the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.cfg.Delay }

// Busy reports whether a transmission is in progress.
func (l *Link) Busy() bool { return l.busy }

// QueueLen reports the outbound queue occupancy.
func (l *Link) QueueLen() int { return l.q.Len() }

// DropQueued discards everything waiting in the outbound queue (used when
// the receiver detaches, e.g. a handoff) and reports how many packets
// died. A transmission already on the wire is unaffected.
func (l *Link) DropQueued() int {
	n := l.q.Len()
	for p := l.q.Pop(); p != nil; p = l.q.Pop() {
		p.Release()
	}
	return n
}

// ReleaseAll gives up every packet reference the link holds — queued, on
// the wire, or crossing the propagation delay — without running any hook
// or counter. It is the end-of-run teardown; the link must not carry
// traffic afterwards.
func (l *Link) ReleaseAll() {
	for p := l.q.Pop(); p != nil; p = l.q.Pop() {
		p.Release()
	}
	if l.curP != nil {
		l.curP.Release()
		l.curP = nil
	}
	for i, p := range l.inflight {
		p.Release()
		l.inflight[i] = nil
	}
	l.inflight = l.inflight[:0]
}

// Stats returns a copy of the accumulated counters.
func (l *Link) Stats() Stats {
	s := l.stats
	s.QueueDrops = l.q.Dropped()
	return s
}

// Send queues p for transmission, taking over the caller's reference. It
// reports false if the queue refused the packet (which is then released).
func (l *Link) Send(p *packet.Packet) bool {
	if p.Kind == packet.Data {
		switch {
		case l.red != nil:
			if l.red.ShouldMark(l.q.Len(), l.rng) {
				p.CongestionMarked = true
				l.stats.ECNMarked++
			}
		case l.cfg.ECNThreshold > 0 && l.q.Len() >= l.cfg.ECNThreshold:
			p.CongestionMarked = true
			l.stats.ECNMarked++
		}
	}
	if !l.q.Push(p) {
		p.Release()
		return false
	}
	l.kick()
	return true
}

// kick starts the transmitter if it is idle and work is queued.
func (l *Link) kick() {
	if l.busy {
		return
	}
	p := l.q.Pop()
	if p == nil {
		return
	}
	l.busy = true
	l.curP = p
	l.curStart = l.sim.Now()
	size := p.Size()
	if size != l.lastSize {
		l.lastSize = size
		l.lastTx = l.TxTime(size)
		l.lastBits = int64(math.Ceil(float64(size.Bits()) * l.cfg.Overhead))
	}
	l.curTx, l.curBits = l.lastTx, l.lastBits
	l.stats.Sent++
	l.stats.BytesSent += size
	l.sim.Schedule(l.curTx, l.txDoneFn)
}

// txDone fires when the current transmission finishes serializing: draw
// the error channel, hand survivors to the propagation pipe, and start
// the next transmission.
func (l *Link) txDone() {
	p, start, tx, onAirBits := l.curP, l.curStart, l.curTx, l.curBits
	l.busy = false
	l.curP = nil
	if l.onTxDone != nil {
		l.onTxDone(p)
	}
	corrupted := false
	if l.cfg.Channel != nil {
		mean := l.cfg.Channel.ExpectedBitErrors(start, start+tx, onAirBits)
		corrupted = l.rng.PoissonAtLeastOne(mean)
	}
	if corrupted {
		l.stats.Corrupted++
		p.Release()
	} else {
		l.inflight = append(l.inflight, p)
		l.sim.Schedule(l.cfg.Delay, l.deliverFn)
	}
	l.kick()
}

// deliverNext completes the propagation delay of the oldest in-flight
// packet and hands it to the receiver.
func (l *Link) deliverNext() {
	p := l.inflight[0]
	copy(l.inflight, l.inflight[1:])
	l.inflight = l.inflight[:len(l.inflight)-1]
	if l.intercept != nil && !l.intercept(p) {
		p.Release() // consumed by the fault injector
		return
	}
	l.stats.Delivered++
	l.stats.BytesDelivered += p.Size()
	l.deliver(p)
}

// Paper link presets.

// WiredLAN returns the paper's 10 Mbps wired LAN link configuration.
func WiredLAN(delay time.Duration) Config {
	return Config{Name: "wired", Rate: 10 * units.Mbps, Delay: delay, QueueLimit: 100}
}

// WirelessLAN returns the paper's 2 Mbps local-area wireless link with no
// framing overhead.
func WirelessLAN(delay time.Duration, ch errmodel.Channel) Config {
	return Config{Name: "wireless", Rate: 2 * units.Mbps, Delay: delay, Channel: ch}
}

// BitRateWirelessWAN is the raw WAN radio rate (19.2 kbps).
const BitRateWirelessWAN = 19200 * units.BitPerSecond
