package a

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest != 3 {
		t.Fatal(OnlyTest)
	}
	var c Counter
	c.Add()
	c.Reset()
	if c.n != 0 {
		t.Fatal(c.n)
	}
}
