// Package a holds one of each thing deadcode reports.
package a

// Used is reached from main.
func Used() {}

// Unreached is called by nothing (reported).
func Unreached() { helper() }

// helper is called only by Unreached (reported).
func helper() {}

// Dead is named by nothing, so neither it nor its methods are reached
// (all three reported).
type Dead struct{ n int }

func (d Dead) Get() int { return d.n }

func (d *Dead) Set(n int) { d.n = n }

// OnlyTest is named only by a_test.go, which the lint does not load
// (reported).
const OnlyTest = 3

// Counter is reached from main, and so is Add, which main calls; Reset
// is named only by a_test.go and by no interface (reported).
type Counter struct{ n int }

func (c *Counter) Add() { c.n++ }

func (c *Counter) Reset() { c.n = 0 }

// Knobs is reached from main, which reads Limit; only a_test.go sets it,
// so every run sees zero (reported). Depth and Names are written only by
// their own defaults, so every run sees the default (both reported).
type Knobs struct {
	Limit int
	Depth int
	Names []string
}

// WithDefaults fills in the unset knobs.
func (k Knobs) WithDefaults() Knobs {
	if k.Depth <= 0 {
		k.Depth = 4
	}
	if len(k.Names) == 0 {
		k.Names = []string{"a"}
	}
	return k
}
