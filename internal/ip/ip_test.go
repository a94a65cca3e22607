package ip

import (
	"testing"
	"testing/quick"
	"time"

	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

func newFragmenter(t *testing.T, mtu units.ByteSize) *Fragmenter {
	t.Helper()
	f, err := NewFragmenter(mtu, &packet.IDGen{})
	if err != nil {
		t.Fatalf("NewFragmenter: %v", err)
	}
	return f
}

func TestNewFragmenterRejectsBadMTU(t *testing.T) {
	for _, mtu := range []units.ByteSize{0, -1} {
		if _, err := NewFragmenter(mtu, &packet.IDGen{}); err == nil {
			t.Errorf("MTU %d accepted", mtu)
		}
	}
}

func TestFragmentSlicing(t *testing.T) {
	tests := []struct {
		name      string
		payload   units.ByteSize // TCP payload; on-wire = payload + 40
		mtu       units.ByteSize
		wantCount int
		wantLast  units.ByteSize
	}{
		{"576B packet, 128 MTU", 536, 128, 5, 64}, // 576 = 4*128 + 64
		{"exact multiple", 472, 128, 4, 128},      // 512 = 4*128
		{"fits in one MTU", 60, 128, 1, 100},
		{"single byte over", 89, 128, 2, 1}, // 129 = 128 + 1
		{"1536B packet", 1496, 128, 12, 128},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := newFragmenter(t, tt.mtu)
			p := &packet.Packet{ID: 42, Kind: packet.Data, Seq: 1000, Payload: tt.payload}
			frags := f.Fragment(p)
			if len(frags) != tt.wantCount {
				t.Fatalf("got %d fragments, want %d", len(frags), tt.wantCount)
			}
			var sum units.ByteSize
			for i, fr := range frags {
				if fr.Kind != packet.Fragment {
					t.Errorf("fragment %d kind = %v", i, fr.Kind)
				}
				if fr.FragOf != p.ID || fr.FragCount != tt.wantCount || fr.FragIndex != i {
					t.Errorf("fragment %d ids wrong: %+v", i, fr)
				}
				if fr.Payload > tt.mtu {
					t.Errorf("fragment %d exceeds MTU: %d", i, fr.Payload)
				}
				if fr.Seq != p.Seq {
					t.Errorf("fragment %d seq = %d, want %d", i, fr.Seq, p.Seq)
				}
				sum += fr.Payload
			}
			if sum != p.Size() {
				t.Errorf("fragment bytes sum to %d, want %d", sum, p.Size())
			}
			if last := frags[len(frags)-1].Payload; last != tt.wantLast {
				t.Errorf("last fragment = %d bytes, want %d", last, tt.wantLast)
			}
			if got := f.FragmentCount(p.Size()); got != tt.wantCount {
				t.Errorf("FragmentCount = %d, want %d", got, tt.wantCount)
			}
		})
	}
}

func TestFragmentPropagatesRetransmitFlag(t *testing.T) {
	f := newFragmenter(t, 128)
	p := &packet.Packet{ID: 1, Kind: packet.Data, Payload: 536, Retransmit: true}
	for _, fr := range f.Fragment(p) {
		if !fr.Retransmit {
			t.Fatal("retransmit flag lost in fragmentation")
		}
	}
}

func TestFragmentIDsUnique(t *testing.T) {
	f := newFragmenter(t, 128)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		p := &packet.Packet{ID: uint64(100 + i), Kind: packet.Data, Payload: 536}
		for _, fr := range f.Fragment(p) {
			if seen[fr.ID] {
				t.Fatalf("duplicate fragment ID %d", fr.ID)
			}
			seen[fr.ID] = true
		}
	}
}

func reassemble(t *testing.T, s *sim.Simulator, timeout time.Duration) (*Reassembler, *[]*packet.Packet) {
	t.Helper()
	var got []*packet.Packet
	r, err := NewReassembler(s, timeout, func(p *packet.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatalf("NewReassembler: %v", err)
	}
	return r, &got
}

func TestReassembleRoundTrip(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 0)

	orig := &packet.Packet{ID: 7, Kind: packet.Data, Seq: 2048, Payload: 536, Retransmit: true}
	for _, fr := range f.Fragment(orig) {
		r.Receive(fr)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	p := (*got)[0]
	if p.ID != orig.ID || p.Seq != orig.Seq || p.Payload != orig.Payload ||
		p.Kind != packet.Data || !p.Retransmit {
		t.Errorf("reassembled %+v, want equivalent of %+v", p, orig)
	}
	if r.Stats().Completed != 1 {
		t.Errorf("Completed = %d", r.Stats().Completed)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d", r.Pending())
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 0)
	frags := f.Fragment(&packet.Packet{ID: 9, Kind: packet.Data, Seq: 0, Payload: 536})
	// Deliver in reverse.
	for i := len(frags) - 1; i >= 0; i-- {
		r.Receive(frags[i])
	}
	if len(*got) != 1 || (*got)[0].Payload != 536 {
		t.Fatalf("out-of-order reassembly failed: %v", *got)
	}
}

func TestReassembleDuplicatesIdempotent(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 0)
	frags := f.Fragment(&packet.Packet{ID: 3, Kind: packet.Data, Payload: 536})
	// Each fragment delivered twice (lost link-acks cause ARQ re-sends).
	for _, fr := range frags {
		r.Receive(fr)
		r.Receive(fr)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if (*got)[0].Payload != 536 {
		t.Errorf("payload = %d after duplicates", (*got)[0].Payload)
	}
	if r.Stats().Duplicates == 0 {
		t.Error("duplicates not counted")
	}
}

func TestStaleFragmentAfterCompletion(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 0)
	frags := f.Fragment(&packet.Packet{ID: 4, Kind: packet.Data, Payload: 536})
	for _, fr := range frags {
		r.Receive(fr)
	}
	r.Receive(frags[0]) // straggler duplicate after completion
	if len(*got) != 1 {
		t.Fatalf("stale fragment re-delivered the packet")
	}
	if r.Stats().Stale != 1 {
		t.Errorf("Stale = %d, want 1", r.Stats().Stale)
	}
}

func TestIncompleteGroupExpires(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 10*time.Second)
	frags := f.Fragment(&packet.Packet{ID: 5, Kind: packet.Data, Payload: 536})
	// Deliver all but one fragment.
	for _, fr := range frags[:len(frags)-1] {
		r.Receive(fr)
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", r.Pending())
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 0 {
		t.Error("group not purged by timeout")
	}
	if r.Stats().Expired != 1 {
		t.Errorf("Expired = %d, want 1", r.Stats().Expired)
	}
	// The straggler arriving after expiry is stale, not a new group.
	r.Receive(frags[len(frags)-1])
	if r.Pending() != 0 || len(*got) != 0 {
		t.Error("straggler after expiry re-opened the group")
	}
	if r.Stats().Stale != 1 {
		t.Errorf("Stale = %d, want 1", r.Stats().Stale)
	}
}

func TestCompletionCancelsExpiryTimer(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, _ := reassemble(t, s, 10*time.Second)
	for _, fr := range f.Fragment(&packet.Packet{ID: 6, Kind: packet.Data, Payload: 536}) {
		r.Receive(fr)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending after completion (timer leak)", s.Pending())
	}
}

func TestNonFragmentPassesThrough(t *testing.T) {
	s := sim.New()
	r, got := reassemble(t, s, 0)
	ack := &packet.Packet{ID: 11, Kind: packet.Ack, AckNo: 576}
	r.Receive(ack)
	if len(*got) != 1 || (*got)[0] != ack {
		t.Error("non-fragment packet did not pass through")
	}
}

func TestNilDeliverRejected(t *testing.T) {
	if _, err := NewReassembler(sim.New(), 0, nil); err == nil {
		t.Error("nil deliver accepted")
	}
}

func TestInterleavedGroups(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	r, got := reassemble(t, s, 0)
	a := f.Fragment(&packet.Packet{ID: 100, Kind: packet.Data, Seq: 0, Payload: 536})
	b := f.Fragment(&packet.Packet{ID: 101, Kind: packet.Data, Seq: 576, Payload: 536})
	for i := range a {
		r.Receive(a[i])
		r.Receive(b[i])
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	if (*got)[0].ID != 100 || (*got)[1].ID != 101 {
		t.Errorf("order = %d,%d", (*got)[0].ID, (*got)[1].ID)
	}
}

// Property: fragmentation then full reassembly is the identity on
// (ID, Seq, Payload, Retransmit) for any payload and MTU.
func TestPropertyFragmentReassembleIdentity(t *testing.T) {
	f := func(payloadRaw uint16, mtuRaw uint8, retx bool) bool {
		payload := units.ByteSize(payloadRaw%4096) + 1
		mtu := units.ByteSize(mtuRaw)%512 + 16
		s := sim.New()
		fr, err := NewFragmenter(mtu, &packet.IDGen{})
		if err != nil {
			return false
		}
		var out *packet.Packet
		r, err := NewReassembler(s, 0, func(p *packet.Packet) { out = p })
		if err != nil {
			return false
		}
		orig := &packet.Packet{ID: 77, Kind: packet.Data, Seq: 12345, Payload: payload, Retransmit: retx}
		for _, frag := range fr.Fragment(orig) {
			if frag.Payload > mtu {
				return false
			}
			r.Receive(frag)
		}
		return out != nil &&
			out.ID == orig.ID &&
			out.Seq == orig.Seq &&
			out.Payload == orig.Payload &&
			out.Retransmit == orig.Retransmit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAppendFragmentsReusesTheBuffer(t *testing.T) {
	f := newFragmenter(t, 128)
	buf := make([]*packet.Packet, 0, 8)
	a := f.AppendFragments(buf, &packet.Packet{ID: 1, Kind: packet.Data, Payload: 536})
	if len(a) != 5 || &a[0] != &buf[:1][0] {
		t.Fatalf("AppendFragments returned %d fragments outside the supplied buffer", len(a))
	}
	first := a[0]
	b := f.AppendFragments(a[:0], &packet.Packet{ID: 2, Kind: packet.Data, Payload: 88})
	if len(b) != 1 || b[0].FragOf != 2 || b[0] == first {
		t.Errorf("second train = %v", b)
	}
	// Fragment itself never shares storage between calls.
	x := f.Fragment(&packet.Packet{ID: 3, Kind: packet.Data, Payload: 536})
	y := f.Fragment(&packet.Packet{ID: 4, Kind: packet.Data, Payload: 536})
	if &x[0] == &y[0] || x[0].FragOf != 3 || y[0].FragOf != 4 {
		t.Error("Fragment reused a slice a caller may still hold")
	}
}

// TestFinishedGroupsAreForgottenAfterOneTimeout pins the horizon of the
// stale-fragment memory: a finished group's ID is remembered for one
// reassembly timeout — long enough for any ARQ retransmission of its
// fragments — and then forgotten, so the memory is bounded by the groups
// finished in one timeout, not by the length of the run.
func TestFinishedGroupsAreForgottenAfterOneTimeout(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	const timeout = 10 * time.Second
	r, got := reassemble(t, s, timeout)
	complete := func(id uint64) []*packet.Packet {
		frags := f.Fragment(&packet.Packet{ID: id, Kind: packet.Data, Payload: 536})
		for _, fr := range frags {
			r.Receive(fr)
		}
		return frags
	}
	early := complete(1)
	if r.Remembered() != 1 {
		t.Fatalf("Remembered = %d after one group", r.Remembered())
	}
	// One group a second for a minute: the memory holds a timeout's worth.
	for i := 0; i < 60; i++ {
		if err := s.Run(s.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
		complete(uint64(100 + i))
		if n := r.Remembered(); n > 12 {
			t.Fatalf("remembering %d groups %d s in, with one finishing per second and a 10 s horizon", n, i+1)
		}
	}
	if len(*got) != 61 {
		t.Fatalf("delivered %d, want 61", len(*got))
	}
	// Inside the horizon a straggler is stale...
	recent := f.Fragment(&packet.Packet{ID: 159, Kind: packet.Data, Payload: 536})
	r.Receive(recent[0])
	if r.Stats().Stale != 1 || r.Pending() != 0 {
		t.Errorf("straggler inside the horizon: stats %+v pending %d", r.Stats(), r.Pending())
	}
	// ...and a minute after its group finished the ID is forgotten: the
	// fragment opens a group, which the timeout will purge.
	r.Receive(early[0])
	if r.Pending() != 1 {
		t.Errorf("fragment of a forgotten group did not open a new one (pending %d)", r.Pending())
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Expired != 1 || len(*got) != 61 {
		t.Errorf("after the purge: stats %+v, delivered %d", r.Stats(), len(*got))
	}
}

// TestForgottenIDFinishesAgain walks one packet ID through every answer
// the finished-group memory can give: open, expired and remembered (its
// stragglers stale), forgotten once another group finishes past the
// horizon, opened and completed a second time — now remembered out of ID
// order, behind a higher ID — and stale again; an ID the reassembler never
// saw, below the highest finished one, still opens.
func TestForgottenIDFinishesAgain(t *testing.T) {
	s := sim.New()
	f := newFragmenter(t, 128)
	const timeout = time.Second
	r, got := reassemble(t, s, timeout)
	frags := func(id uint64) []*packet.Packet {
		return f.Fragment(&packet.Packet{ID: id, Kind: packet.Data, Payload: 200})
	}
	runTo := func(at time.Duration) {
		t.Helper()
		if err := s.Run(at); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, want Stats, pending, remembered, delivered int) {
		t.Helper()
		want.OpenPeak = r.Stats().OpenPeak
		if r.Stats() != want || r.Pending() != pending || r.Remembered() != remembered || len(*got) != delivered {
			t.Fatalf("%s: stats %+v pending %d remembered %d delivered %d, want %+v %d %d %d",
				when, r.Stats(), r.Pending(), r.Remembered(), len(*got), want, pending, remembered, delivered)
		}
	}
	seven := frags(7)
	r.Receive(seven[0])
	check("first fragment", Stats{}, 1, 0, 0)
	runTo(1500 * time.Millisecond) // the partial group expires at 1 s
	r.Receive(seven[1])
	check("straggler of the expired group", Stats{Expired: 1, Stale: 1}, 0, 1, 0)
	runTo(2500 * time.Millisecond)
	for _, fr := range frags(9) { // finishing past 7's horizon forgets 7
		r.Receive(fr)
	}
	check("a later group finished", Stats{Completed: 1, Expired: 1, Stale: 1}, 0, 1, 1)
	again := frags(7)
	for _, fr := range again {
		r.Receive(fr)
	}
	check("the forgotten ID finished again", Stats{Completed: 2, Expired: 1, Stale: 1}, 0, 2, 2)
	r.Receive(again[0])
	r.Receive(frags(9)[0])
	check("stragglers of both remembered IDs", Stats{Completed: 2, Expired: 1, Stale: 3}, 0, 2, 2)
	r.Receive(frags(8)[0])
	check("an unseen ID below the highest finished", Stats{Completed: 2, Expired: 1, Stale: 3}, 1, 2, 2)
}

// TestReassemblyIsAllocationFreeWhenWarm: with a pool behind the IDGen
// and a consumer that releases what it is handed, a fragment-reassemble
// cycle draws its fragments, its group, its timer and its rebuilt segment
// from recycled storage.
func TestReassemblyIsAllocationFreeWhenWarm(t *testing.T) {
	s := sim.New()
	pool := &packet.Pool{}
	ids := packet.NewIDGen(pool)
	f, err := NewFragmenter(128, ids)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	r, err := NewReassembler(s, 0, func(p *packet.Packet) {
		delivered++
		p.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf []*packet.Packet
	cycle := func() {
		// Two groups open at once, completed out of order.
		a := ids.New(packet.Data)
		a.Payload = 536
		buf = f.AppendFragments(buf[:0], a)
		a.Release()
		b := ids.New(packet.Data)
		b.Payload = 1496
		buf = f.AppendFragments(buf, b)
		b.Release()
		for i := len(buf) - 1; i >= 0; i-- {
			r.Receive(buf[i])
		}
		if err := s.Run(s.Now() + 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm, past the stale-memory horizon
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("a warm fragment+reassemble cycle allocated %.1f objects", avg)
	}
	if delivered != 2*301 {
		t.Errorf("delivered %d segments, want %d", delivered, 2*301)
	}
	if st := pool.Stats(); st.LiveAtEnd != 0 || pool.Fault() != nil {
		t.Errorf("pool after the run: %+v, fault %v", st, pool.Fault())
	}
}
