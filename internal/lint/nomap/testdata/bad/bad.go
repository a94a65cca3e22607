// Package bad holds one of each thing nomap reports, and the things it
// must let through.
package bad

type table map[int]string

type agent struct {
	byID  map[uint64]int // reported: a map-typed field
	named table          // reported: a named map type is still a map
	order []int
}

var schemeNames = map[int]string{1: "basic"}

func (a *agent) sum() (n int) {
	for _, v := range a.byID { // reported: range over a map
		n += v
	}
	for range schemeNames { // allowed by name
		n++
	}
	for _, v := range a.order {
		n += v
	}
	return n + len(a.named)
}
