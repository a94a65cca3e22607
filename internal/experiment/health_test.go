package experiment

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
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

// TestHeartbeatWritesOnlyChangedStatus: a running heartbeat writes the
// status file within about statusWriteInterval of a change, leaves it
// alone while nothing changes, and writes once more at stop.
func TestHeartbeatWritesOnlyChangedStatus(t *testing.T) {
	t.Parallel()
	h := NewHealth()
	h.SetStragglerLog(nil)
	path := filepath.Join(t.TempDir(), "status.json")
	stop := h.Heartbeat(path, io.Discard)
	defer stop()
	completed := func() (uint64, bool) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, false
		}
		var snap HealthSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("status file: %v\n%s", err, raw)
		}
		return snap.Completed, true
	}
	waitFor := func(want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * statusWriteInterval); time.Now().Before(deadline); time.Sleep(statusWriteInterval / 20) {
			if n, ok := completed(); ok && n == want {
				return
			}
		}
		t.Fatalf("status file never showed %d completed run(s)", want)
	}

	h.runFinished(h.runStarted("k", 1), 1, true)
	waitFor(1)
	// Unchanged: the heartbeat does not rewrite a removed file.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * statusWriteInterval / 2) // at least one tick
	if _, ok := completed(); ok {
		t.Error("heartbeat rewrote the status file with nothing changed")
	}
	h.runFinished(h.runStarted("k", 2), 1, true)
	waitFor(2)
	h.runFinished(h.runStarted("k", 3), 1, true)
	stop()
	if n, ok := completed(); !ok || n != 3 {
		t.Errorf("status file after stop shows %d completed (present %v), want 3", n, ok)
	}
}
