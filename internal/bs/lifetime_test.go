package bs

import (
	"testing"
	"time"

	"wtcp/internal/packet"
)

// TestARQDiscardLeavesNoRecord: a packet discarded after RTmax leaves the
// engine entirely — its queued units go with it, and no per-packet entry
// stays behind to grow with the run (the old `discarded` set gained one
// for the life of the run). What was transmitted is unchanged: only units
// that reached the window were ever attempted.
func TestARQDiscardLeavesNoRecord(t *testing.T) {
	ch := scriptChannel{bad: func(time.Duration) bool { return true }}
	cfg := Config{Scheme: LocalRecovery, MTU: 128, ARQ: ARQConfig{RTmax: 1, Window: 1}}
	b := newBench(t, cfg, ch)
	b.bs.FromWired(b.dataPacket(0))
	b.bs.FromWired(b.dataPacket(536))
	if b.bs.arq.pendingUnits.Len() != 9 {
		t.Fatalf("%d units queued behind the window, want 9", b.bs.arq.pendingUnits.Len())
	}
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := b.bs.Stats()
	if st.ARQDiscards != 2 {
		t.Fatalf("discards = %d, want both packets", st.ARQDiscards)
	}
	// Per packet: the first unit's initial try and its one retransmission;
	// the other four units were withdrawn with the packet, never sent.
	if st.ARQAttempts != 4 {
		t.Errorf("attempts = %d, want 4", st.ARQAttempts)
	}
	e := b.bs.arq
	if e.pendingUnits.Len() != 0 || len(e.held) != 0 || len(e.outstanding) != 0 || len(e.connUnits) != 0 {
		t.Errorf("engine still holds state: pending=%d held=%d outstanding=%d conns=%d",
			e.pendingUnits.Len(), len(e.held), len(e.outstanding), len(e.connUnits))
	}
}

// TestDiscardKeepsOtherPacketsQueuedInOrder: withdrawing a discarded
// packet's units must not disturb the units queued around them.
func TestDiscardKeepsOtherPacketsQueuedInOrder(t *testing.T) {
	bad := true
	ch := scriptChannel{bad: func(time.Duration) bool { return bad }}
	cfg := Config{Scheme: LocalRecovery, MTU: 128, ARQ: ARQConfig{RTmax: 1, Window: 1}}
	b := newBench(t, cfg, ch)
	first := b.dataPacket(0)
	second := b.dataPacket(536)
	b.bs.FromWired(first)
	b.bs.FromWired(second)
	for b.bs.Stats().ARQDiscards == 0 {
		if ok, err := b.s.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	}
	bad = false // the fade ends with the first packet's discard
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 5 {
		t.Fatalf("mobile host got %d units, want the second packet's 5", len(b.mhGot))
	}
	for i, u := range b.mhGot {
		if u.FragOf != second.ID || u.FragIndex != i {
			t.Errorf("unit %d is %v, want fragment %d of packet %d", i, u, i, second.ID)
		}
	}
}

// TestNotificationOrderIsDeterministic: the failing connection is
// notified first and the other held-up connections in ascending order,
// whatever order a map would yield them in — the order fixes packet IDs
// and the reverse queue's order, so it decides whether a run with several
// connections is reproducible.
func TestNotificationOrderIsDeterministic(t *testing.T) {
	ch := scriptChannel{bad: func(time.Duration) bool { return true }}
	for round := 0; round < 30; round++ {
		cfg := Config{Scheme: EBSN, MTU: 128, ARQ: ARQConfig{RTmax: 1, Window: 1}}
		b := newBench(t, cfg, ch)
		for i, conn := range []int{5, 9, 2, 7, 3, 2} {
			p := b.dataPacket(int64(i) * 536)
			p.Conn = conn
			b.bs.FromWired(p)
		}
		for len(b.toFH) == 0 {
			if ok, err := b.s.Step(); !ok || err != nil {
				t.Fatalf("step: %v %v", ok, err)
			}
		}
		var got []int
		for _, p := range b.toFH {
			if p.Kind != packet.EBSN {
				t.Fatalf("unexpected %v toward the fixed host", p)
			}
			got = append(got, p.Conn)
		}
		want := []int{5, 2, 3, 7, 9}
		if len(got) != len(want) {
			t.Fatalf("round %d: notified %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: notified %v, want %v", round, got, want)
			}
		}
		for i := 1; i < len(b.toFH); i++ {
			if b.toFH[i].ID != b.toFH[i-1].ID+1 {
				t.Fatalf("round %d: notification IDs not consecutive in emission order", round)
			}
		}
	}
}
