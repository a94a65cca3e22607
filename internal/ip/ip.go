// Package ip implements the fragmentation the base station performs before
// the wireless hop and the all-or-nothing reassembly at the mobile host.
//
// Following the paper's model, a wired-side packet of W bytes (TCP payload
// plus 40-byte header) is sliced into ceil(W/MTU) link-level fragments of
// at most MTU bytes each; the radio's framing/FEC overhead (the 1.5x
// factor) is applied by the wireless link, not here. Loss of any fragment
// loses the whole packet — exactly the behaviour [Kent & Mogul 1988] warn
// about and the paper's packet-size study quantifies.
package ip

import (
	"errors"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// ErrBadMTU is returned when constructing a Fragmenter with a non-positive
// MTU.
var ErrBadMTU = errors.New("ip: MTU must be positive")

// Fragmenter slices Data segments into wireless-MTU fragments.
type Fragmenter struct {
	mtu units.ByteSize
	ids *packet.IDGen
}

// NewFragmenter returns a fragmenter for the given wireless MTU, drawing
// fragment IDs from ids.
func NewFragmenter(mtu units.ByteSize, ids *packet.IDGen) (*Fragmenter, error) {
	if mtu <= 0 {
		return nil, ErrBadMTU
	}
	return &Fragmenter{mtu: mtu, ids: ids}, nil
}

// Fragment slices p (a Data segment) into fragments of at most MTU bytes.
// A packet that already fits in the MTU still yields a single fragment so
// the ARQ path is uniform. Fragments carry the original segment's ID in
// FragOf for reassembly. The returned slice is the caller's own: callers
// hold several at once. p still belongs to the caller.
func (f *Fragmenter) Fragment(p *packet.Packet) []*packet.Packet {
	return f.AppendFragments(make([]*packet.Packet, 0, f.FragmentCount(p.Size())), p)
}

// AppendFragments is Fragment into a caller-supplied buffer: the
// fragments of p are appended to dst, so a caller that consumes them at
// once can reuse one buffer for every packet.
func (f *Fragmenter) AppendFragments(dst []*packet.Packet, p *packet.Packet) []*packet.Packet {
	remaining := p.Size()
	count := f.FragmentCount(remaining)
	for i := 0; i < count; i++ {
		chunk := f.mtu
		if remaining < chunk {
			chunk = remaining
		}
		remaining -= chunk
		fr := f.ids.New(packet.Fragment)
		fr.Conn = p.Conn
		fr.Seq = p.Seq
		fr.Payload = chunk
		fr.Retransmit = p.Retransmit
		fr.CongestionMarked = p.CongestionMarked
		fr.FragOf = p.ID
		fr.FragIndex = i
		fr.FragCount = count
		fr.SentAt = p.SentAt
		dst = append(dst, fr)
	}
	return dst
}

// FragmentCount reports how many fragments a packet of the given on-wire
// size produces, without allocating them.
func (f *Fragmenter) FragmentCount(size units.ByteSize) int {
	n := int((size + f.mtu - 1) / f.mtu)
	if n < 1 {
		n = 1
	}
	return n
}

// Stats counts reassembler activity.
type Stats struct {
	// Completed counts fully reassembled packets delivered upward.
	Completed uint64
	// Duplicates counts fragments that arrived for an already-held index
	// (ARQ retransmission after a lost link-level ack).
	Duplicates uint64
	// Expired counts partial groups purged by the reassembly timeout.
	Expired uint64
	// Stale counts fragments that arrived after their group completed or
	// expired.
	Stale uint64
	// OpenPeak is the most groups partially assembled at once.
	OpenPeak int
}

// group tracks one in-progress reassembly. Groups are recycled through
// the reassembler's free list; each owns its expiry timer, bound to the
// group once, so opening a group allocates nothing once the list is warm.
type group struct {
	// have marks the fragment indexes held so far; got counts them.
	have  []bool
	got   int
	timer *sim.Timer
	orig  originKey
}

// originKey carries the original segment's identity so the reassembled
// packet can be rebuilt without holding a pointer to the sender's object.
type originKey struct {
	id         uint64
	conn       int
	seq        int64
	payload    units.ByteSize
	retransmit bool
	marked     bool
	sentAt     time.Duration
}

// Reassembler collects fragments and delivers the original segment when a
// group completes. Partial groups are purged after Timeout (a lost
// fragment must not hold buffer state forever — the TCP source will send a
// fresh segment with a fresh packet ID).
//
// A finished group — completed or purged — is remembered for one more
// Timeout, so that a late fragment of it (an ARQ retransmission after a
// lost link ack, which can trail the original by at most the ARQ's RTmax
// retry cycles, far inside the timeout) is dropped as stale instead of
// opening a group nothing will complete. After that horizon the ID is
// forgotten, as an IP stack forgets a datagram ID, which bounds the
// memory by the groups finished in one timeout rather than in the run.
type Reassembler struct {
	sim     *sim.Simulator
	timeout time.Duration
	deliver func(*packet.Packet)
	// groups holds the open groups by packet ID: a dozen at most, and a
	// fragment nearly always belongs to the newest.
	groups queue.Table[uint64, *group]
	free   []*group
	// doneLog lists the remembered finished groups in finishing order,
	// from doneHead (the oldest still remembered) on, so the horizon is
	// enforced without a kernel event; doneMax is the highest ID that
	// ever finished, so the first fragment of a new packet — an ID above
	// it — is known not to be remembered without a search.
	doneLog  []finished
	doneHead int
	doneMax  uint64
	stats    Stats
}

// finished records when a group's ID was remembered.
type finished struct {
	id uint64
	at time.Duration
}

// DefaultReassemblyTimeout matches common IP stack defaults (60 s is the
// BSD ip reassembly TTL ballpark).
const DefaultReassemblyTimeout = 60 * time.Second

// NewReassembler returns a reassembler delivering completed segments to
// deliver. A non-positive timeout uses DefaultReassemblyTimeout.
func NewReassembler(s *sim.Simulator, timeout time.Duration, deliver func(*packet.Packet)) (*Reassembler, error) {
	if deliver == nil {
		return nil, errors.New("ip: nil deliver callback")
	}
	if timeout <= 0 {
		timeout = DefaultReassemblyTimeout
	}
	return &Reassembler{
		sim:     s,
		timeout: timeout,
		deliver: deliver,
	}, nil
}

// Stats returns a copy of the counters.
func (r *Reassembler) Stats() Stats { return r.stats }

// remembered reports whether id is a finished group still inside the
// horizon. A late fragment trails its group closely, so the search runs
// from the newest.
func (r *Reassembler) remembered(id uint64) bool {
	if id > r.doneMax {
		return false
	}
	for i := len(r.doneLog) - 1; i >= r.doneHead; i-- {
		if r.doneLog[i].id == id {
			return true
		}
	}
	return false
}

// Receive accepts one fragment, taking over the caller's reference. When
// the fragment completes its group, the original Data segment is rebuilt
// and delivered; duplicates and stale fragments are counted and dropped.
func (r *Reassembler) Receive(frag *packet.Packet) {
	if frag.Kind != packet.Fragment {
		// Whole packets (LAN mode acks, control) pass straight through.
		r.deliver(frag)
		return
	}
	var g *group
	if i := r.groups.Find(frag.FragOf); i >= 0 {
		g = r.groups[i].Val
	} else if r.remembered(frag.FragOf) {
		r.stats.Stale++
		frag.Release()
		return
	} else {
		g = r.open(frag)
	}
	if frag.FragIndex < 0 || frag.FragIndex >= len(g.have) {
		// Not an index of this group's train: nothing a Fragmenter emits.
		r.stats.Stale++
		frag.Release()
		return
	}
	if g.have[frag.FragIndex] {
		r.stats.Duplicates++
		frag.Release()
		return
	}
	g.have[frag.FragIndex] = true
	g.got++
	g.orig.payload += frag.Payload
	if frag.CongestionMarked {
		g.orig.marked = true
	}
	if g.got < len(g.have) {
		frag.Release()
		return
	}
	// Complete: rebuild the original segment. The summed fragment bytes
	// include the 40-byte header, so subtract it to recover the TCP
	// payload length.
	p := frag.NewSibling()
	frag.Release()
	p.ID = g.orig.id
	p.Kind = packet.Data
	p.Conn = g.orig.conn
	p.Seq = g.orig.seq
	p.Payload = g.orig.payload - packet.HeaderSize
	p.Retransmit = g.orig.retransmit
	p.CongestionMarked = g.orig.marked
	p.SentAt = g.orig.sentAt
	r.finish(g)
	r.stats.Completed++
	r.deliver(p)
}

// open starts a group for first's packet, reusing a recycled one when
// there is one.
func (r *Reassembler) open(first *packet.Packet) *group {
	var g *group
	if n := len(r.free); n > 0 {
		g = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		g = &group{}
		g.timer = sim.NewTimer(r.sim, func() { r.expire(g) })
	}
	count := first.FragCount
	if count < 1 {
		count = 1
	}
	if cap(g.have) < count {
		g.have = make([]bool, count)
	} else {
		g.have = g.have[:count]
		clear(g.have)
	}
	g.got = 0
	g.orig = originKey{
		id:         first.FragOf,
		conn:       first.Conn,
		seq:        first.Seq,
		retransmit: first.Retransmit,
		sentAt:     first.SentAt,
	}
	g.timer.Set(r.timeout)
	r.groups.Insert(g.orig.id, g)
	r.stats.OpenPeak = max(r.stats.OpenPeak, len(r.groups))
	return g
}

// finish closes g — completed or expired — remembers its ID for one
// timeout, forgets the IDs older than that, and recycles the group.
func (r *Reassembler) finish(g *group) {
	now := r.sim.Now()
	for r.doneHead < len(r.doneLog) && r.doneLog[r.doneHead].at+r.timeout < now {
		r.doneHead++
	}
	if r.doneHead > 0 && r.doneHead*2 >= len(r.doneLog) {
		// Slide the remembered tail to the front so the log's storage is
		// bounded by the horizon too.
		n := copy(r.doneLog, r.doneLog[r.doneHead:])
		r.doneLog = r.doneLog[:n]
		r.doneHead = 0
	}
	g.timer.Stop()
	r.groups.Delete(r.groups.Find(g.orig.id))
	r.doneLog = append(r.doneLog, finished{id: g.orig.id, at: now})
	r.doneMax = max(r.doneMax, g.orig.id)
	r.free = append(r.free, g)
}

// expire purges a partial group whose timeout elapsed.
func (r *Reassembler) expire(g *group) {
	r.finish(g)
	r.stats.Expired++
}
