package main

import (
	"errors"
	"fmt"

	"neg/internal/b"
)

func main() {
	var s b.Shape = b.NewSquare(2)
	fmt.Println(s.Area(), b.Celsius(21))
	fmt.Println(errors.Is(b.Wrap(b.ErrBase), b.ErrBase))
	cfg := b.Configure()
	items, points := b.Items()
	var w b.Wire
	g := b.NewGauge()
	g.Observe(3)
	fmt.Println(cfg.Addr, cfg.Inner.N, cfg.Pair.A, cfg.Pair.B, items[0].K, points[0].X, points[0].Y, w.Name, g.High, g.Size)
}
