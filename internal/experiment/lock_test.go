//go:build unix

package experiment

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCheckpointLockRejectsSecondEngine: while one engine holds a
// checkpoint open, a second open of the same path must fail fast and
// name the holder — two engines persisting over each other would
// silently corrupt the sweep.
func TestCheckpointLockRejectsSecondEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := OpenLedger(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenLedger(path, Options{})
	if err == nil {
		t.Fatal("second open of a locked checkpoint succeeded, want locked-by error")
	}
	if !strings.Contains(err.Error(), "locked by another process") {
		t.Errorf("second-open error %q does not say the checkpoint is locked", err)
	}
	if !strings.Contains(err.Error(), strconv.Itoa(os.Getpid())) {
		t.Errorf("second-open error %q does not name the holder pid %d", err, os.Getpid())
	}

	// Release the lock: the next engine must get in, and the lock file
	// is deliberately left behind (unlinking would race a concurrent
	// opener into locking an orphaned inode).
	ck.Close()
	ck2, err := OpenLedger(path, Options{})
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	ck2.Close()
	ck2.Close() // close is idempotent
	if _, err := os.Stat(path + ".lock"); err != nil {
		t.Errorf("lock file should remain in place after release: %v", err)
	}
}

// TestLedgerLockGuardsSharedPath: an engine sweep pointed at a
// checkpoint that a live ledger (a fleet coordinator, a wtcpd) holds is
// refused by the same single-writer guard.
func TestLedgerLockGuardsSharedPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := OpenLedger(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if _, err := Fig7(context.Background(), Options{Checkpoint: path}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Errorf("engine opened a checkpoint a live ledger holds: err = %v", err)
	}
}
