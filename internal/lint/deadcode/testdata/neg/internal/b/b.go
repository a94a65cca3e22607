// Package b holds the things deadcode must let through.
package b

import (
	"errors"
	"fmt"
)

// Shape is what main holds a Square as.
type Shape interface{ Area() int }

// Square's Area is called only through Shape, an interface of the
// module: reached with its type.
type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

// NewSquare is called by main.
func NewSquare(side int) Square { return Square{side: side} }

// A typed blank var is an assertion; it reaches nothing, and Square is
// reached from main anyway.
var _ Shape = Square{}

// Celsius's String is called only by fmt, through fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// ErrBase is what main looks for under a wrapping.
var ErrBase = errors.New("base")

// wrapped's Error is called through error, and its Unwrap only by
// errors.Is, through an interface errors does not name.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }

func (w wrapped) Unwrap() error { return w.err }

// Wrap is called by main.
func Wrap(err error) error { return wrapped{err} }

var registry []string

func init() { register("square") }

// register is reached only from init.
func register(name string) { registry = append(registry, name) }
