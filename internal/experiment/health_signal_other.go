//go:build !unix

package experiment

import "os"

// dumpSignal subscribes to nothing on platforms without SIGUSR1; the
// -status file is written everywhere.
func dumpSignal() (<-chan os.Signal, func()) {
	return nil, func() {}
}
