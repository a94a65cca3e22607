package packet

import (
	"strings"
	"testing"
	"testing/quick"

	"wtcp/internal/units"
)

func TestSize(t *testing.T) {
	tests := []struct {
		name string
		p    Packet
		want units.ByteSize
	}{
		{"data 536B payload", Packet{Kind: Data, Payload: 536}, 576},
		{"data empty", Packet{Kind: Data}, 40},
		{"fragment is a raw chunk", Packet{Kind: Fragment, Payload: 128}, 128},
		{"short tail fragment", Packet{Kind: Fragment, Payload: 64}, 64},
		{"ack", Packet{Kind: Ack}, 40},
		{"link ack", Packet{Kind: LinkAck}, 40},
		{"ebsn", Packet{Kind: EBSN}, 40},
		{"quench", Packet{Kind: SourceQuench}, 40},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Size(); got != tt.want {
				t.Errorf("Size() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEnd(t *testing.T) {
	p := Packet{Kind: Data, Seq: 1000, Payload: 536}
	if got := p.End(); got != 1536 {
		t.Errorf("End() = %d, want 1536", got)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{Data, "DATA"},
		{Ack, "ACK"},
		{Fragment, "FRAG"},
		{LinkAck, "LACK"},
		{EBSN, "EBSN"},
		{SourceQuench, "QUENCH"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestPacketString(t *testing.T) {
	tests := []struct {
		name string
		p    Packet
		want []string
	}{
		{"data", Packet{ID: 7, Kind: Data, Seq: 100, Payload: 36}, []string{"DATA", "id=7", "seq=100"}},
		{"retransmit flagged", Packet{Kind: Data, Retransmit: true}, []string{"rtx"}},
		{"ack", Packet{ID: 3, Kind: Ack, AckNo: 576}, []string{"ACK", "ackno=576"}},
		{"fragment", Packet{Kind: Fragment, FragOf: 9, FragIndex: 1, FragCount: 5}, []string{"FRAG", "of=9", "2/5"}},
		{"linkack", Packet{Kind: LinkAck, AckNo: 12}, []string{"LACK", "for=12"}},
		{"ebsn", Packet{Kind: EBSN, ID: 2}, []string{"EBSN"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.String()
			for _, w := range tt.want {
				if !strings.Contains(got, w) {
					t.Errorf("String() = %q, missing %q", got, w)
				}
			}
		})
	}
}

func TestIDGenUniqueMonotonic(t *testing.T) {
	var g IDGen
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if id <= prev {
			t.Fatalf("IDs not strictly increasing: %d after %d", id, prev)
		}
		prev = id
	}
	if first := new(IDGen).Next(); first != 1 {
		t.Errorf("first ID = %d, want 1", first)
	}
}

// Property: non-fragment sizes are always >= HeaderSize, fragment size
// equals its chunk, and End-Seq equals Payload.
func TestPropertySizeAndSpan(t *testing.T) {
	f := func(kindRaw uint8, seq int32, payload uint16) bool {
		kinds := []Kind{Data, Ack, Fragment, LinkAck, EBSN, SourceQuench}
		p := Packet{
			Kind:    kinds[int(kindRaw)%len(kinds)],
			Seq:     int64(seq),
			Payload: units.ByteSize(payload),
		}
		if p.Kind == Fragment {
			if p.Size() != p.Payload {
				return false
			}
		} else if p.Size() < HeaderSize {
			return false
		}
		return p.End()-p.Seq == int64(p.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
