//go:build unix

package experiment

import (
	"os"
	"os/signal"
	"syscall"
)

// dumpSignal subscribes to SIGUSR1, the "what is the engine doing right
// now" hook: kill -USR1 <pid> makes Heartbeat dump the status JSON
// without interrupting the sweep.
func dumpSignal() (<-chan os.Signal, func()) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	return c, func() { signal.Stop(c) }
}
