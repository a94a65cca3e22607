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
}
