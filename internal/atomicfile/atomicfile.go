// Package atomicfile is the repo's one write-then-rename: every file
// that is replaced whole (a checkpoint ledger created or adopted, status
// snapshots, wtcpd's journal rewrites, repro bundles) goes through Write so a reader — or a
// process killed at any instant — sees either the previous complete
// file or the new one, never a torn one. Beside it sits the one
// single-writer guard (Lock) for state that is rewritten or appended to
// in place: a checkpoint ledger, wtcpd's data directory.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// ErrLocked is wrapped by Lock's error when another process (or another
// open in this one) holds the path.
var ErrLocked = errors.New("locked by another process")

// Write replaces path with data: the bytes are fully written to a temp
// file in path's own directory (rename is only atomic within one file
// system) and renamed over the old file. The directory must exist. On
// any failure the temp file is removed and the returned *os.PathError
// or *os.LinkError names the step that failed.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
