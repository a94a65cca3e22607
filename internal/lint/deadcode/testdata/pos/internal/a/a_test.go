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
	if k := (Knobs{Limit: 3}); k.Limit != 3 {
		t.Fatal(k)
	}
}
