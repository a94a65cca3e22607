package a

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest != 3 {
		t.Fatal(OnlyTest)
	}
}
