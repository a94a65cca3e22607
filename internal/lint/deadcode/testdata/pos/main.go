package main

import "pos/internal/a"

func main() {
	a.Used()
	var c a.Counter
	c.Add()
	k := a.Knobs{}.WithDefaults()
	if k.Limit > 0 || k.Depth > len(k.Names) {
		a.Used()
	}
}
