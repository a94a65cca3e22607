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
	if q.Enqueued() != 2 {
		t.Errorf("Enqueued = %d, want 2", q.Enqueued())
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

func TestByteAccounting(t *testing.T) {
	q := New(10)
	q.Push(mkData(1, 536)) // 576 on wire
	q.Push(mkData(2, 88))  // 128 on wire
	if q.Bytes() != 704 {
		t.Errorf("Bytes = %d, want 704", q.Bytes())
	}
	q.Pop()
	if q.Bytes() != 128 {
		t.Errorf("Bytes after pop = %d, want 128", q.Bytes())
	}
	q.Drain()
	if q.Bytes() != 0 {
		t.Errorf("Bytes after drain = %d, want 0", q.Bytes())
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := New(10)
	if q.Peek() != nil {
		t.Error("peek on empty returned a packet")
	}
	q.Push(mkData(1, 10))
	if p := q.Peek(); p == nil || p.ID != 1 {
		t.Fatal("peek wrong")
	}
	if q.Len() != 1 {
		t.Error("peek removed the packet")
	}
}

func TestPeak(t *testing.T) {
	q := New(10)
	for i := uint64(0); i < 7; i++ {
		q.Push(mkData(i, 1))
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	q.Push(mkData(100, 1))
	if q.Peak() != 7 {
		t.Errorf("Peak = %d, want 7", q.Peak())
	}
}

func TestDrainOrder(t *testing.T) {
	q := New(0)
	for i := uint64(1); i <= 4; i++ {
		q.Push(mkData(i, 1))
	}
	out := q.Drain()
	if len(out) != 4 {
		t.Fatalf("drained %d, want 4", len(out))
	}
	for i, p := range out {
		if p.ID != uint64(i+1) {
			t.Errorf("drain[%d] = %d", i, p.ID)
		}
	}
	if q.Len() != 0 {
		t.Error("queue not empty after drain")
	}
}

func TestLimitAccessor(t *testing.T) {
	if New(5).Limit() != 5 {
		t.Error("Limit accessor wrong")
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
