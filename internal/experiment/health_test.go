package experiment

import (
	"runtime"
	"testing"
)

// TestHealthHeapBytesTracksAllocation: the snapshot's heap reading is
// live heap object bytes, read from runtime/metrics rather than a
// stop-the-world runtime.ReadMemStats, and it moves with the heap.
func TestHealthHeapBytesTracksAllocation(t *testing.T) {
	h := NewHealth()
	runtime.GC()
	before := h.Snapshot().HeapBytes
	if before == 0 {
		t.Fatal("heap_bytes reads 0 on a running process")
	}
	buf := make([]byte, 8<<20)
	after := h.Snapshot().HeapBytes
	runtime.KeepAlive(buf)
	if after < before+7<<20 {
		t.Errorf("heap_bytes %d -> %d across an 8 MiB allocation, want a rise of about 8 MiB", before, after)
	}
}
