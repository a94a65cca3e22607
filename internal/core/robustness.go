package core

import (
	"fmt"
	"strings"

	"wtcp/internal/sim"
)

// This file wires the kernel's invariant-checking hooks (sim.AddCheck)
// to the assembled topology and renders the watchdog's diagnostic
// snapshot. The invariants hold for every scheme and under every fault
// plan; a violation means a protocol-implementation bug, never a network
// condition.

// registerInvariants installs the standard run-time checks:
//
//   - sender-state: the TCP source's window and sequence geometry
//     (cwnd bounds, snd_una <= snd_nxt <= snd_max <= total).
//   - snd_una / rcv_nxt / delivered monotonicity: acknowledged and
//     in-order byte counters never move backwards.
//   - per-link conservation: a hop cannot deliver (or corrupt) more
//     transmissions than were handed to it. Fault-injected duplicates
//     bypass the transmitter and are counted separately (Stats.Injected),
//     so the bound survives chaos duplication.
//   - end-to-end conservation: the sink's in-order byte count never
//     exceeds the highest byte the source has sent. This form — unlike a
//     segment-count comparison — also survives duplication and replay.
//   - packet-lifetime: no component has released a packet twice or
//     retained a free one (the pool's latched fault; also checked at
//     teardown whether or not checks are on).
//
// In split mode the relay's sender gets the sender checks too, and the
// mobile host's bytes are also bounded by what the relay has sent. The
// kernel adds its own event-heap structure check alongside these.
func (tp *topology) registerInvariants() {
	tp.sim.AddCheck("sender-state", tp.sender.CheckInvariants)
	tp.sim.AddCheck("snd-una-monotonic", sim.Monotonic("snd_una", tp.sender.SndUna))
	tp.sim.AddCheck("rcv-nxt-monotonic", sim.Monotonic("rcv_nxt", tp.sink.RcvNxt))
	tp.sim.AddCheck("delivered-monotonic", sim.Monotonic("delivered bytes",
		func() int64 { return int64(tp.sink.Delivered()) }))
	tp.sim.AddCheck("sink-within-sent", sim.Conservation("in-order sink bytes vs highest byte sent",
		tp.sender.SndMax, tp.sink.RcvNxt))
	if r := tp.relay; r != nil {
		tp.sim.AddCheck("relay-sender-state", r.sender.CheckInvariants)
		tp.sim.AddCheck("relay-snd-una-monotonic", sim.Monotonic("relay snd_una", r.sender.SndUna))
		tp.sim.AddCheck("sink-within-relayed", sim.Conservation("in-order sink bytes vs the relay's highest byte sent",
			r.sender.SndMax, tp.sink.RcvNxt))
	}
	for _, l := range tp.links() {
		tp.sim.AddCheck("conservation-"+l.Name(), sim.Conservation(
			l.Name()+" deliveries vs transmissions",
			func() int64 { return int64(l.Stats().Sent) },
			func() int64 { st := l.Stats(); return int64(st.Delivered + st.Corrupted) },
		))
	}
	tp.sim.AddCheck("packet-lifetime", tp.pool.Fault)
}

// snapshot renders the diagnostic state dump the watchdog attaches to a
// StallError: enough of each layer's state to tell where the transfer
// wedged without re-running under a tracer.
func (tp *topology) snapshot() string {
	var b strings.Builder
	snd := tp.sender
	fmt.Fprintf(&b, "  sender: snd_una=%d snd_nxt=%d snd_max=%d cwnd=%d done=%v\n",
		snd.SndUna(), snd.SndNxt(), snd.SndMax(), snd.Cwnd(), snd.Done())
	fmt.Fprintf(&b, "  sink:   rcv_nxt=%d delivered=%d\n", tp.sink.RcvNxt(), tp.sink.Delivered())
	if r := tp.relay; r != nil {
		fmt.Fprintf(&b, "  relay:  rcv_nxt=%d snd_una=%d snd_max=%d cwnd=%d done=%v\n",
			r.sink.RcvNxt(), r.sender.SndUna(), r.sender.SndMax(), r.sender.Cwnd(), r.sender.Done())
	} else {
		st := tp.bs.Stats()
		fmt.Fprintf(&b, "  bs:     scheme=%v down=%v backlog=%d crashes=%d crash_lost=%d crash_discards=%d\n",
			tp.bs.Scheme(), tp.bs.Down(), tp.bs.Backlog(), st.Crashes, st.CrashLostPackets, st.CrashDiscards)
	}
	for _, l := range tp.links() {
		ls := l.Stats()
		fmt.Fprintf(&b, "  link %-13s queue=%d busy=%v sent=%d delivered=%d corrupted=%d injected=%d drops=%d\n",
			l.Name(), l.QueueLen(), l.Busy(), ls.Sent, ls.Delivered, ls.Corrupted, ls.Injected, ls.QueueDrops)
	}
	if tp.chaos != nil {
		cs := tp.chaos.Stats()
		fmt.Fprintf(&b, "  chaos:  storm_drops=%d corrupt=%d dups=%d reorders=%d notify_lost=%d notify_dup=%d notify_delayed=%d handoffs=%d handoff_drops=%d\n",
			cs.StormDrops, cs.CorruptDrops, cs.Duplicates, cs.Reorders,
			cs.NotifyDropped, cs.NotifyDuplicated, cs.NotifyDelayed, cs.Handoffs, cs.HandoffDrops)
	}
	return strings.TrimRight(b.String(), "\n")
}
