package bs

import (
	"slices"
	"testing"
	"time"

	"wtcp/internal/packet"
)

// The cases below are the ones the engine's maps used to absorb without a
// line of code — a key written twice, a delete of whatever matched, a
// minimum found by scanning — pinned now that the working sets are ordered
// tables (queue.Table) and each of them is a branch.

// TestDuplicateUnitIDIsSupersededInPlace: a fault-duplicated wired packet
// (unfragmented, so the unit ID is the packet ID) arrives while its first
// copy is still outstanding. The newer attempt takes over the slot — one
// entry, one held record — the older entry gives up its unit, and its ack
// timer, already armed, fires stale: it must not count as an attempt of
// the newcomer.
func TestDuplicateUnitIDIsSupersededInPlace(t *testing.T) {
	ch := scriptChannel{bad: func(time.Duration) bool { return true }}
	cfg := Config{Scheme: LocalRecovery, ARQ: ARQConfig{RTmax: 1}}
	b := newBench(t, cfg, ch)
	e := b.bs.arq
	first := b.dataPacket(0)
	dup := *first // the injector's by-value copy: same ID, its own object
	b.bs.FromWired(first)
	orphan := e.entry(first.ID)
	for !orphan.timer.Pending() { // let the first copy finish serializing
		if ok, err := b.s.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	}
	b.bs.FromWired(&dup)
	if len(e.outstanding) != 1 || len(e.held) != 1 {
		t.Fatalf("outstanding=%d held=%d after a duplicate, want one slot and one record", len(e.outstanding), len(e.held))
	}
	if en := e.entry(first.ID); en == orphan || en.unit != &dup {
		t.Fatalf("the slot still tracks the older attempt")
	}
	if orphan.unit != nil || !orphan.timer.Pending() {
		t.Fatalf("orphan: unit=%v timerPending=%v, want no unit and its timer still armed", orphan.unit, orphan.timer.Pending())
	}
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	// First copy's try, then the newcomer's try and its one retransmission;
	// the newcomer's two ack timeouts and nothing from the orphan's.
	st := b.bs.Stats()
	if st.ARQAttempts != 3 || st.ARQTimeouts != 2 || st.ARQDiscards != 1 {
		t.Errorf("attempts=%d timeouts=%d discards=%d, want 3/2/1", st.ARQAttempts, st.ARQTimeouts, st.ARQDiscards)
	}
	if len(e.outstanding) != 0 || len(e.held) != 0 || e.pendingUnits.Len() != 0 {
		t.Errorf("engine still holds state: outstanding=%d held=%d pending=%d", len(e.outstanding), len(e.held), e.pendingUnits.Len())
	}
}

// TestDiscardWithdrawsUnitsInEveryState: at the moment a packet is given
// up its units are spread over all three places a unit can be — awaiting
// an ack, backing off, and still queued behind the window. All of them go,
// the bystander packet queued behind loses nothing, and its units take
// over the freed window slots in order.
func TestDiscardWithdrawsUnitsInEveryState(t *testing.T) {
	ch := scriptChannel{bad: func(time.Duration) bool { return true }}
	cfg := Config{Scheme: LocalRecovery, MTU: 128, ARQ: ARQConfig{RTmax: 1, Window: 3, BackoffMax: 2 * time.Second}}
	b := newBench(t, cfg, ch)
	e := b.bs.arq
	victim, bystander := b.dataPacket(0), b.dataPacket(536)
	victim.Conn, bystander.Conn = 1, 2
	var awaiting, backingOff, queued int
	b.bs.SetHooks(Hooks{OnARQDiscard: func(pid uint64) {
		if pid != victim.ID || awaiting+backingOff+queued > 0 {
			return
		}
		for _, o := range e.outstanding {
			switch {
			case e.unitPacketID(o.Val.unit) != pid:
				t.Errorf("a bystander unit reached the window before the discard")
			case o.Val.backingOff:
				backingOff++
			default:
				awaiting++
			}
		}
		for n := e.pendingUnits.Len(); n > 0; n-- {
			u := e.pendingUnits.Pop()
			if e.unitPacketID(u) == pid {
				queued++
			}
			e.pendingUnits.Push(u)
		}
	}})
	b.bs.FromWired(victim)
	b.bs.FromWired(bystander)
	for b.bs.Stats().ARQDiscards == 0 {
		if ok, err := b.s.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	}
	if awaiting == 0 || backingOff == 0 || queued == 0 || awaiting+backingOff+queued != 5 {
		t.Fatalf("at the discard: %d awaiting an ack, %d backing off, %d queued; want all three states over 5 units",
			awaiting, backingOff, queued)
	}
	if len(e.held) != 1 || e.held[0].Key != bystander.ID || e.held[0].Val != (heldPacket{conn: 2, units: 5}) {
		t.Fatalf("held after the discard = %+v, want only the bystander with 5 units", e.held)
	}
	if len(e.connUnits) != 1 || e.connUnits[0].Key != 2 || e.connUnits[0].Val != 5 {
		t.Fatalf("connUnits after the discard = %+v, want conn 2 with 5 units", e.connUnits)
	}
	if len(e.outstanding) != 3 || e.pendingUnits.Len() != 2 {
		t.Fatalf("window=%d queued=%d after the discard, want the bystander's 3+2", len(e.outstanding), e.pendingUnits.Len())
	}
	for i, o := range e.outstanding {
		if u := o.Val.unit; u.FragOf != bystander.ID || u.FragIndex != i || o.Key != u.ID {
			t.Errorf("window slot %d holds %v under key %d, want fragment %d of the bystander", i, u, o.Key, i)
		}
	}
}

// snoopBench is a Snoop station and the observations the cases below
// assert on.
type snoopBench struct {
	*bench
	retx, evicted []int64
}

func newSnoopBench(t *testing.T) *snoopBench {
	sb := &snoopBench{bench: newBench(t, Config{Scheme: Snoop}, nil)}
	sb.bs.SetHooks(Hooks{
		OnSnoopRetx:  func(seq int64, _ int) { sb.retx = append(sb.retx, seq) },
		OnSnoopEvict: func(seq int64) { sb.evicted = append(sb.evicted, seq) },
	})
	return sb
}

func (sb *snoopBench) cached() []int64 {
	var seqs []int64
	for _, c := range sb.bs.snoop.cache {
		seqs = append(seqs, c.Key)
	}
	return seqs
}

func (sb *snoopBench) ack(no int64) {
	sb.bs.FromWireless(&packet.Packet{ID: sb.ids.Next(), Kind: packet.Ack, AckNo: no})
}

// TestSnoopEvictsAtTheCapFromMidCache: the segment a dupack asks for need
// not be the oldest cached — a source retransmission of older data sits
// below it — and at the retransmission cap it is that entry, and only
// that entry, which leaves; the persistence timer then works on the new
// oldest.
func TestSnoopEvictsAtTheCapFromMidCache(t *testing.T) {
	sb := newSnoopBench(t)
	sb.bs.FromWired(sb.dataPacket(1072))
	sb.bs.FromWired(sb.dataPacket(1608))
	sb.ack(1072) // a new ack: nothing below it to free
	if err := sb.s.Run(SnoopTimeout + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sb.retx, []int64{1072}) {
		t.Fatalf("persistence timer retransmitted %v, want the oldest (1072)", sb.retx)
	}
	sb.bs.FromWired(sb.dataPacket(536)) // the source re-sends older data
	if got := sb.cached(); !slices.Equal(got, []int64{536, 1072, 1608}) {
		t.Fatalf("cache = %v, want it in sequence order", got)
	}
	// Spend 1072's remaining local retransmissions.
	sb.bs.snoop.cache[sb.bs.snoop.cache.Find(1072)].Val.retx = SnoopMaxRetx
	forwarded := len(sb.toFH)
	sb.ack(1072) // a dupack for a copy already at its cap
	if !slices.Equal(sb.evicted, []int64{1072}) || !slices.Equal(sb.cached(), []int64{536, 1608}) {
		t.Fatalf("evicted %v leaving %v, want 1072 gone from between its neighbours", sb.evicted, sb.cached())
	}
	if len(sb.toFH) != forwarded+1 {
		t.Errorf("the dupack for an evicted copy was not forwarded to the source")
	}
	if err := sb.s.Run(sb.s.Now() + SnoopTimeout + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sb.retx, []int64{1072, 536}) {
		t.Errorf("retransmissions = %v, want the new oldest (536) next", sb.retx)
	}
	if st := sb.bs.Stats(); st.SnoopCachePeak != 3 || st.SnoopEvictions != 1 {
		t.Errorf("stats = %+v, want cache peak 3 and one eviction", st)
	}
}

// TestSnoopResetMidCache: a crash empties the cache whatever it held and
// stops the persistence timer; the rebooted agent caches and frees from
// scratch, re-learning the cumulative ack from the first one it sees.
func TestSnoopResetMidCache(t *testing.T) {
	sb := newSnoopBench(t)
	for _, seq := range []int64{0, 536, 1072} {
		sb.bs.FromWired(sb.dataPacket(seq))
	}
	sb.ack(536)
	if lost := sb.bs.snoop.reset(); lost != 2 {
		t.Fatalf("reset lost %d cached segments, want 2", lost)
	}
	if sb.bs.SnoopCacheLen() != 0 || sb.bs.snoop.timer.Pending() || sb.bs.snoop.lastAck != 0 {
		t.Fatalf("after reset: cache=%d timerPending=%v lastAck=%d", sb.bs.SnoopCacheLen(), sb.bs.snoop.timer.Pending(), sb.bs.snoop.lastAck)
	}
	sb.bs.FromWired(sb.dataPacket(2144))
	sb.bs.FromWired(sb.dataPacket(1608)) // out of order
	if got := sb.cached(); !slices.Equal(got, []int64{1608, 2144}) {
		t.Fatalf("cache after reboot = %v", got)
	}
	sb.ack(2144) // lower than nothing the new agent knows: a new ack
	if got := sb.cached(); !slices.Equal(got, []int64{2144}) {
		t.Errorf("cache after the first ack = %v, want everything below it freed", got)
	}
}
