package main

import "pos/internal/a"

func main() { a.Used() }
