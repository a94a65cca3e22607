// Package b holds the things deadcode must let through.
package b

// Shape is what main holds a Square as.
type Shape interface{ Area() int }

// Square's Area is called only through Shape: reached with its type.
type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

// NewSquare is called by main.
func NewSquare(side int) Square { return Square{side: side} }

// A typed blank var is an assertion; it reaches nothing, and Square is
// reached from main anyway.
var _ Shape = Square{}

var registry []string

func init() { register("square") }

// register is reached only from init.
func register(name string) { registry = append(registry, name) }
