package queue

import (
	"testing"
	"testing/quick"

	"wtcp/internal/packet"
	"wtcp/internal/units"
)

func mkData(id uint64, payload units.ByteSize) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.Data, Payload: payload}
}

func TestFIFOOrder(t *testing.T) {
	q := New(10)
	for i := uint64(1); i <= 5; i++ {
		if !q.Push(mkData(i, 100)) {
			t.Fatalf("push %d refused", i)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		p := q.Pop()
		if p == nil || p.ID != i {
			t.Fatalf("pop = %v, want id %d", p, i)
		}
	}
	if q.Pop() != nil {
		t.Error("pop from empty returned a packet")
	}
}

func TestDropTailAtCapacity(t *testing.T) {
	q := New(2)
	if !q.Push(mkData(1, 10)) || !q.Push(mkData(2, 10)) {
		t.Fatal("pushes within capacity refused")
	}
	if q.Push(mkData(3, 10)) {
		t.Error("push over capacity admitted")
	}
	if q.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", q.Dropped())
	}
	// Popping frees a slot.
	q.Pop()
	if !q.Push(mkData(4, 10)) {
		t.Error("push after pop refused")
	}
}

func TestUnboundedQueue(t *testing.T) {
	q := New(0)
	for i := uint64(0); i < 10000; i++ {
		if !q.Push(mkData(i, 1)) {
			t.Fatal("unbounded queue refused a push")
		}
	}
	if q.Len() != 10000 {
		t.Errorf("Len = %d", q.Len())
	}
}

// Property: for any sequence of pushes and pops, admitted packets come out
// in push order, and Len == admitted - popped.
func TestPropertyFIFO(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		q := New(int(limit%8) + 1)
		var nextID uint64
		var admitted []uint64
		var popped int
		for _, push := range ops {
			if push {
				nextID++
				if q.Push(mkData(nextID, 1)) {
					admitted = append(admitted, nextID)
				}
			} else if p := q.Pop(); p != nil {
				if popped >= len(admitted) || p.ID != admitted[popped] {
					return false
				}
				popped++
			}
		}
		return q.Len() == len(admitted)-popped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
