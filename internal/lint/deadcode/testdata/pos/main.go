package main

import "pos/internal/a"

func main() {
	a.Used()
	var c a.Counter
	c.Add()
	var k a.Knobs
	if k.Limit > 0 {
		a.Used()
	}
}
