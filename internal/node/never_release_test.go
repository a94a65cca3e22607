package node

import (
	"testing"

	"wtcp/internal/ip"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
)

// TestCallersThatNeverReleaseStayCorrect drives the fragment path the way
// the benchmark's layer probes and most unit tests do: every fragment
// train is built up front and the slices are held across calls, and the
// callbacks that receive the mobile host's output — rebuilt segments
// upward, link acks onto the uplink — keep what they are given and never
// release it. With a pool-less IDGen (the probes) nothing is recycled at
// all; with a pool, the fragments the reassembler finishes with are
// recycled into link acks and rebuilt segments while everything a caller
// still holds stays untouched: the pool references nothing it handed out,
// so a holder that never releases costs the recycling and nothing else.
func TestCallersThatNeverReleaseStayCorrect(t *testing.T) {
	const packets, perPacket = 200, 5
	for _, tc := range []struct {
		name string
		pool *packet.Pool
	}{
		{"no pool", nil},
		{"pooled", &packet.Pool{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			ids := packet.NewIDGen(tc.pool)
			var delivered, acks []*packet.Packet
			m, err := NewMobileDeliver(s, MobileConfig{LinkAcks: true}, ids,
				func(p *packet.Packet) { delivered = append(delivered, p) },
				func(p *packet.Packet) { acks = append(acks, p) })
			if err != nil {
				t.Fatal(err)
			}
			f, err := ip.NewFragmenter(128, ids)
			if err != nil {
				t.Fatal(err)
			}
			// Pre-built trains, all held at once (bench/probes.go:fragmentsOf).
			trains := make([][]*packet.Packet, packets)
			fragIDs := make([][]uint64, packets)
			for i := range trains {
				orig := &packet.Packet{ID: ids.Next(), Kind: packet.Data, Seq: int64(i) * 536, Payload: 536}
				trains[i] = f.Fragment(orig)
				if len(trains[i]) != perPacket {
					t.Fatalf("train of %d fragments, want %d", len(trains[i]), perPacket)
				}
				for _, fr := range trains[i] {
					if fr.FragOf != orig.ID {
						t.Fatalf("fragment %v built from recycled state", fr)
					}
					fragIDs[i] = append(fragIDs[i], fr.ID)
				}
			}
			// Interleave two trains at a time, as ip's own tests do.
			for i := 0; i < packets; i += 2 {
				for j := 0; j < perPacket; j++ {
					m.Receive(trains[i][j])
					m.Receive(trains[i+1][j])
				}
			}
			if len(delivered) != packets || len(acks) != packets*perPacket {
				t.Fatalf("delivered %d segments and %d link acks, want %d and %d",
					len(delivered), len(acks), packets, packets*perPacket)
			}
			// Everything the callbacks kept is still what it was when handed
			// over, and no two of them share storage.
			seen := make(map[*packet.Packet]bool)
			for i, p := range delivered {
				if p.Kind != packet.Data || p.Payload != 536 || p.Seq != int64(i)*536 {
					t.Fatalf("kept segment %d was overwritten: %+v", i, p)
				}
				if seen[p] {
					t.Fatalf("segment storage handed out twice")
				}
				seen[p] = true
			}
			acked := make(map[uint64]bool)
			for i, a := range acks {
				if a.Kind != packet.LinkAck || a.AckNo == 0 {
					t.Fatalf("kept link ack %d was overwritten: %+v", i, a)
				}
				if seen[a] {
					t.Fatalf("link-ack storage handed out twice")
				}
				seen[a] = true
				acked[uint64(a.AckNo)] = true
			}
			for i := range fragIDs {
				for _, id := range fragIDs[i] {
					if !acked[id] {
						t.Fatalf("fragment %d of packet %d was never link-acked", id, i)
					}
				}
			}
			if st := m.Reassembler().Stats(); st.Completed != packets || st.Duplicates+st.Stale+st.Expired != 0 {
				t.Errorf("reassembly stats %+v", st)
			}
			if tc.pool == nil {
				return
			}
			if err := tc.pool.Fault(); err != nil {
				t.Errorf("lifetime fault: %v", err)
			}
			// Still referenced: what the callbacks kept. The fragments were
			// released by the reassembler and recycled.
			st := tc.pool.Stats()
			if st.LiveAtEnd != packets+packets*perPacket {
				t.Errorf("%d packets live, want the %d kept by the callbacks", st.LiveAtEnd, packets+packets*perPacket)
			}
			recycled := 0
			for _, train := range trains {
				for _, fr := range train {
					if seen[fr] {
						recycled++ // now a link ack or a rebuilt segment
					}
				}
			}
			if recycled == 0 {
				t.Errorf("no released fragment was recycled: %+v", st)
			}
		})
	}
}
