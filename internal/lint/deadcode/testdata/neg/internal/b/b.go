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

// Settings' fields are each written once, one way the lint counts.
type Settings struct {
	Addr  int   // &s.Addr
	Inner Inner // s.Inner.N = 2, which writes N too
	Pair  Pair  // a positional literal writes A and B
}

type (
	Inner struct{ N int }
	Pair  struct{ A, B int }
)

func Configure() Settings {
	s := Settings{Pair: Pair{1, 2}}
	set(&s.Addr)
	s.Inner.N = 2
	return s
}

func set(p *int) { *p = 1 }

// Item's K is written only through an elided &Item in a keyed element,
// and Point's X and Y only through one in a positional element.
type (
	Item  struct{ K int }
	Point struct{ X, Y int }
)

func Items() ([]*Item, []*Point) { return []*Item{{K: 1}}, []*Point{{1, 2}} }

// Wire's Name is written by no code, but a json-tagged field counts as
// written: a decode sets it.
type Wire struct {
	Name string `json:"name"`
}

// Gauge's High is written only under a compare that is not a zero test
// (max tracking), and Size by its default and by a literal in NewGauge:
// both count as written.
type Gauge struct{ High, Size int }

func NewGauge() *Gauge { return &Gauge{Size: 8} }

func (g *Gauge) Observe(n int) {
	if g.Size <= 0 {
		g.Size = 8
	}
	if n > g.High {
		g.High = n
	}
}
