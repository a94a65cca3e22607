//go:build neverbuilt

package b

// Excluded is unreachable, but no platform builds this file, so the lint
// does not see it.
func Excluded() {}
