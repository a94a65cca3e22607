//go:build unix

package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestLockRefusesSecondHolderByName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.lock")
	release, err := Lock(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lock(path); !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), strconv.Itoa(os.Getpid())) {
		t.Errorf("second Lock: err = %v, want ErrLocked naming pid %d", err, os.Getpid())
	}
	release()
	release2, err := Lock(path)
	if err != nil {
		t.Fatalf("Lock after release: %v", err)
	}
	release2()
}
