package main

import "pos/internal/a"

func main() {
	a.Used()
	var c a.Counter
	c.Add()
}
