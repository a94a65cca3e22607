package main

import (
	"fmt"

	"neg/internal/b"
)

func main() {
	var s b.Shape = b.NewSquare(2)
	fmt.Println(s.Area())
}
