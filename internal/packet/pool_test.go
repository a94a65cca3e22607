package packet

import (
	"errors"
	"testing"
)

func TestPoolRecyclesReleasedPackets(t *testing.T) {
	pl := &Pool{}
	ids := NewIDGen(pl)
	p := ids.New(Data)
	p.Seq, p.Payload, p.SACK = 512, 536, []SACKBlock{{Start: 1, End: 2}}
	if p.ID != 1 || p.Kind != Data {
		t.Fatalf("New: got %v", p)
	}
	p.Release()
	if p.ID != 0 || p.Kind != 0 || p.Seq != 0 || p.Payload != 0 || p.SACK != nil {
		t.Errorf("released packet not zeroed: %+v", p)
	}
	q := ids.New(Ack)
	if q != p {
		t.Error("the released packet was not reused")
	}
	if q.ID != 2 || q.Kind != Ack || q.Seq != 0 {
		t.Errorf("recycled packet carries old state: %+v", q)
	}
	q.Release()
	st := pl.Stats()
	if st.Allocs != 2 || st.PeakLive != 1 || st.LiveAtEnd != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := pl.Fault(); err != nil {
		t.Errorf("fault latched on clean use: %v", err)
	}
}

func TestPoolCountsReferences(t *testing.T) {
	pl := &Pool{}
	ids := NewIDGen(pl)
	p := ids.New(Fragment)
	p.Retain() // the ARQ entry keeps it while it is in flight
	p.Release()
	if p.ID == 0 {
		t.Fatal("packet freed while a reference was outstanding")
	}
	if got := ids.New(Fragment); got == p {
		t.Fatal("live packet handed out again")
	}
	p.Release()
	if p.ID != 0 || pl.Stats().LiveAtEnd != 1 {
		t.Errorf("last release did not free: %+v, stats %+v", p, pl.Stats())
	}
}

func TestPoolLatchesMisuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		misuse func(*Packet)
		want   error
	}{
		{"double release", (*Packet).Release, ErrDoubleRelease},
		{"retain after free", (*Packet).Retain, ErrRetainAfterFree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := &Pool{}
			ids := NewIDGen(pl)
			p := ids.New(Data)
			p.Release()
			tc.misuse(p)
			if err := pl.Fault(); !errors.Is(err, tc.want) {
				t.Fatalf("Fault = %v, want %v", err, tc.want)
			}
			// The offending call had no effect: the packet is on the free
			// list exactly once.
			a, b := ids.New(Data), ids.New(Data)
			if a == b {
				t.Error("free list corrupted: one packet handed out twice")
			}
			// Only the first fault is kept.
			a.Release()
			a.Release()
			if err := pl.Fault(); !errors.Is(err, tc.want) {
				t.Errorf("first fault overwritten: %v", err)
			}
		})
	}
}

// TestUnpooledPacketsAreLegalEverywhere pins the non-pooled rule: struct
// literals, packets of a pool-less IDGen, and by-value copies of pooled
// packets ignore Retain and Release and never touch a pool.
func TestUnpooledPacketsAreLegalEverywhere(t *testing.T) {
	pl := &Pool{}
	pooled := NewIDGen(pl).New(Data)
	pooled.Seq = 99
	dup := *pooled // what the fault injector's duplication does

	literal := &Packet{ID: 5, Kind: Ack}
	var zero IDGen
	plain := zero.New(EBSN)
	if plain.ID != 1 || plain.Kind != EBSN {
		t.Fatalf("pool-less New: %v", plain)
	}
	for _, p := range []*Packet{literal, plain, &dup} {
		p.Retain()
		p.Release()
		p.Release()
		p.Release()
	}
	if literal.ID != 5 || plain.ID != 1 || dup.Seq != 99 {
		t.Error("Release modified a packet no pool owns")
	}
	if st := pl.Stats(); st.LiveAtEnd != 1 || pl.Fault() != nil {
		t.Errorf("unpooled traffic disturbed the pool: %+v fault %v", st, pl.Fault())
	}
	pooled.Release()
	if dup.Seq != 99 {
		t.Error("releasing the original zeroed its copy")
	}
	if sib := dup.NewSibling(); sib.pooled() {
		t.Error("sibling of an unpooled copy came from the pool")
	}
}

func TestNewSiblingSharesThePool(t *testing.T) {
	pl := &Pool{}
	frag := NewIDGen(pl).New(Fragment)
	sib := frag.NewSibling()
	if sib.ID != 0 || !sib.pooled() || sib.home != pl {
		t.Fatalf("sibling = %+v", sib)
	}
	frag.Release()
	sib.Release()
	if st := pl.Stats(); st.LiveAtEnd != 0 || st.Allocs != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPoolHoldsNoLivePackets: a holder that never releases degrades to
// plain garbage collection — the pool never hands its packet to anyone
// else, and keeps nothing that would.
func TestPoolHoldsNoLivePackets(t *testing.T) {
	pl := &Pool{}
	ids := NewIDGen(pl)
	kept := make(map[*Packet]uint64)
	for i := 0; i < 100; i++ {
		p := ids.New(Data)
		if _, again := kept[p]; again {
			t.Fatalf("unreleased packet %p handed out twice", p)
		}
		kept[p] = p.ID
		ids.New(Ack).Release() // interleaved recycled traffic
	}
	for p, id := range kept {
		if p.ID != id {
			t.Fatalf("held packet %d overwritten (now %d)", id, p.ID)
		}
	}
	for _, p := range pl.free[:cap(pl.free)] {
		if _, live := kept[p]; live {
			t.Fatal("pool storage references a live packet")
		}
	}
}

func TestReleasePoolKeepsStorage(t *testing.T) {
	pl := AcquirePool()
	p := NewIDGen(pl).New(Data)
	p.Release()
	ReleasePool(pl)
	if st := pl.Stats(); st != (PoolStats{}) {
		t.Errorf("released pool not reset: %+v", st)
	}
	if len(pl.free) != 1 {
		t.Errorf("released pool lost its recycled packets")
	}
}
