package bs

import (
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// snoopAgent is a simplified transport-aware snoop module [Balakrishnan
// 95], implemented as a related-work baseline. It caches data segments
// crossing toward the mobile host and performs local retransmissions when
// it sees duplicate TCP acknowledgments (suppressing them toward the
// source) or when a local persistence timer expires. Unlike the paper's
// schemes it must keep per-connection transport state at the base station
// — the operational cost the paper's proposals avoid.
//
// Simplifications versus the full snoop protocol (documented in
// DESIGN.md): a single connection, no wireless-RTT estimator (a fixed
// local timeout), and at most one local retransmission per dupack burst.
type snoopAgent struct {
	bs *BaseStation

	// cache holds the cached segments by start seq: at most SnoopMaxCached
	// entries, admitted in order and acknowledged from the bottom.
	cache queue.Table[int64, cachedSeg]
	// lastAck is the highest cumulative ack seen from the mobile host.
	lastAck int64
	// dupacks counts consecutive duplicates of lastAck.
	dupacks int
	// timer is the persistence timer for the oldest cached segment.
	timer *sim.Timer
}

// cachedSeg is what the agent needs to re-create a segment: local
// retransmissions are fresh packets, so the cache keeps no reference to
// the one that passed through.
type cachedSeg struct {
	payload units.ByteSize
	// locallyRetransmitted marks segments the agent has already re-sent
	// since the last ack advance, limiting dupack-triggered re-sends.
	locallyRetransmitted bool
	// retx counts local retransmissions of this cached copy; at
	// SnoopMaxRetx the copy is evicted. A replacement copy from the
	// source restarts the count.
	retx int
}

func newSnoopAgent(b *BaseStation) *snoopAgent {
	a := &snoopAgent{bs: b}
	a.timer = sim.NewTimer(b.sim, a.onLocalTimeout)
	return a
}

// reset discards the cache and dup-ack state — a base-station crash. It
// returns the number of cached segments lost. lastAck survives in spirit
// only: a rebooted agent restarts from zero and re-learns it from the
// next ack it sees, which is safe because filterAck treats a lower
// cumulative ack as a new one and simply re-seeds.
func (a *snoopAgent) reset() int {
	lost := len(a.cache)
	a.cache.Reset()
	a.lastAck = 0
	a.dupacks = 0
	a.timer.Stop()
	return lost
}

// admit caches a data segment and forwards it onto the wireless link.
func (a *snoopAgent) admit(p *packet.Packet) {
	i := a.cache.Find(p.Seq)
	if i >= 0 || len(a.cache) < SnoopMaxCached {
		// A retransmission from the source replaces the cached copy,
		// clearing the local-retransmit mark and the attempt count.
		seg := cachedSeg{payload: p.Payload}
		if i >= 0 {
			a.cache[i].Val = seg
		} else {
			a.cache.Insert(p.Seq, seg)
			a.bs.stats.SnoopCachePeak = max(a.bs.stats.SnoopCachePeak, len(a.cache))
		}
		if a.bs.hooks.OnSnoopAdmit != nil {
			a.bs.hooks.OnSnoopAdmit(p.Seq)
		}
	}
	a.bs.forwardBasic(p)
	if !a.timer.Pending() {
		a.timer.Set(SnoopTimeout)
	}
}

// filterAck inspects a TCP ack from the mobile host. It returns true when
// the ack should be suppressed (a dupack the agent is handling locally).
func (a *snoopAgent) filterAck(p *packet.Packet) bool {
	switch {
	case p.AckNo > a.lastAck:
		// New ack: free the cache below it, reset dup state, re-arm the
		// persistence timer.
		a.lastAck = p.AckNo
		a.dupacks = 0
		a.cache.PopBelow(p.AckNo)
		if len(a.cache) == 0 {
			a.timer.Stop()
		} else {
			a.timer.Set(SnoopTimeout)
		}
		return false
	case p.AckNo == a.lastAck:
		a.dupacks++
		i := a.cache.Find(p.AckNo)
		if i < 0 {
			// We never saw the missing segment (or evicted it at the
			// retransmission cap); the source must handle it. Forward the
			// dupack so a genuine loss is never hidden from the sender.
			return false
		}
		if seg := &a.cache[i].Val; !seg.locallyRetransmitted {
			seg.locallyRetransmitted = true
			if !a.localRetransmit(i) {
				// Evicted at the cap: local repair has given up, so the
				// dupack must reach the source.
				return false
			}
		}
		// Suppress the dupack: the loss is being repaired locally.
		a.bs.stats.SnoopSuppressedDupAcks++
		if a.bs.hooks.OnSnoopSuppress != nil {
			a.bs.hooks.OnSnoopSuppress(p.AckNo)
		}
		return true
	default:
		// Ack below lastAck: stale; forward (harmless).
		return false
	}
}

// onLocalTimeout retransmits the oldest cached segment.
func (a *snoopAgent) onLocalTimeout() {
	if len(a.cache) == 0 {
		return
	}
	a.localRetransmit(0)
	if len(a.cache) > 0 {
		a.timer.Set(SnoopTimeout)
	} else {
		a.timer.Stop()
	}
}

// localRetransmit re-sends the cached segment at index i over the wireless
// hop. It reports false when the segment has exhausted its attempt cap and
// was evicted instead of retransmitted.
func (a *snoopAgent) localRetransmit(i int) bool {
	seq, seg := a.cache[i].Key, &a.cache[i].Val
	if seg.retx >= SnoopMaxRetx {
		a.evict(i)
		return false
	}
	seg.retx++
	a.bs.stats.SnoopLocalRetx++
	if a.bs.hooks.OnSnoopRetx != nil {
		a.bs.hooks.OnSnoopRetx(seq, seg.retx)
	}
	copy := a.bs.ids.New(packet.Data)
	copy.Seq = seq
	copy.Payload = seg.payload
	copy.Retransmit = true
	copy.SentAt = a.bs.sim.Now()
	a.bs.forwardBasic(copy)
	return true
}

// evict drops the cached copy at index i, which has used up its
// retransmission cap; the fixed host's own recovery (fast retransmit or
// RTO) repairs the loss.
func (a *snoopAgent) evict(i int) {
	seq := a.cache[i].Key
	a.cache.Delete(i)
	a.bs.stats.SnoopEvictions++
	if a.bs.hooks.OnSnoopEvict != nil {
		a.bs.hooks.OnSnoopEvict(seq)
	}
	if len(a.cache) == 0 {
		a.timer.Stop()
	}
}
