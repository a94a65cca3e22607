//go:build !unix

package atomicfile

// Lock is a no-op on platforms without flock; the single-writer guard
// is advisory and unix-only.
func Lock(path string) (release func(), err error) {
	return func() {}, nil
}
