//go:build unix

package atomicfile

import (
	"fmt"
	"os"
	"strings"
	"syscall"
)

// Lock takes an exclusive advisory flock on path, creating it if
// needed, and records this process's pid inside for diagnostics. It
// fails fast (no blocking) with an error wrapping ErrLocked, naming the
// holder, when another open of the path holds the lock. The kernel
// drops the lock if the process dies, so a SIGKILLed holder never leaves
// the path stale; the lock file itself is deliberately left in place on
// release — unlinking it would race a concurrent opener into locking an
// orphaned inode.
func Lock(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder := "unknown pid"
		if data, rerr := os.ReadFile(path); rerr == nil {
			if pid := strings.TrimSpace(string(data)); pid != "" {
				holder = "pid " + pid
			}
		}
		f.Close()
		return nil, fmt.Errorf("%w (%s)", ErrLocked, holder)
	}
	// Best-effort holder tag; the flock itself is the guard.
	f.Truncate(0)
	fmt.Fprintf(f, "%d\n", os.Getpid())
	f.Sync()
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
