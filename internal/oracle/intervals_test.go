package oracle

import (
	"math/rand"
	"testing"
)

func TestIntervalSetAddAndCover(t *testing.T) {
	var s intervalSet
	s.add(10, 20)
	s.add(30, 40)
	if !s.covers(10, 20) || !s.covers(12, 18) {
		t.Error("contained range not covered")
	}
	if s.covers(10, 25) || s.covers(5, 15) || s.covers(20, 30) {
		t.Error("uncovered range reported covered")
	}
	// Merge across the gap.
	s.add(20, 30)
	if !s.covers(10, 40) {
		t.Error("merged range not covered")
	}
	if len(s.spans) != 1 {
		t.Errorf("spans = %v, want one merged span", s.spans)
	}
}

func TestIntervalSetInsertBetweenSpans(t *testing.T) {
	var s intervalSet
	s.add(0, 1)
	s.add(50, 60)
	s.add(100, 110)
	s.add(10, 20) // lands between existing spans
	if len(s.spans) != 4 {
		t.Fatalf("spans = %v", s.spans)
	}
	if !s.covers(10, 20) || !s.covers(50, 60) || !s.covers(100, 110) {
		t.Errorf("existing spans corrupted: %v", s.spans)
	}
}

func TestIntervalSetPrune(t *testing.T) {
	var s intervalSet
	s.add(10, 30)
	s.add(40, 50)
	s.prune(25)
	if s.covers(10, 20) {
		t.Error("pruned bytes still covered")
	}
	if !s.covers(25, 30) || !s.covers(40, 50) {
		t.Error("surviving bytes lost")
	}
	s.prune(1000)
	if len(s.spans) != 0 {
		t.Errorf("spans after full prune: %v", s.spans)
	}
}

func TestIntervalSetEmptyAndDegenerate(t *testing.T) {
	var s intervalSet
	if !s.covers(5, 5) {
		t.Error("empty range must be trivially covered")
	}
	if s.covers(0, 1) {
		t.Error("empty set covers nothing")
	}
	s.add(7, 7) // empty insert is a no-op
	if len(s.spans) != 0 {
		t.Errorf("degenerate add stored %v", s.spans)
	}
}

// TestIntervalSetMatchesBitmap drives add/prune with random ranges and
// compares the set with a byte-per-offset model: the spans must cover
// exactly the modelled bytes, stay sorted, and never touch each other.
func TestIntervalSetMatchesBitmap(t *testing.T) {
	const size = 96
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var s intervalSet
		var model [size]bool
		for op := 0; op < 40; op++ {
			a, b := rng.Intn(size), rng.Intn(size)
			if a > b {
				a, b = b, a
			}
			if rng.Intn(5) == 0 {
				s.prune(int64(a))
				for i := 0; i < a; i++ {
					model[i] = false
				}
			} else {
				s.add(int64(a), int64(b))
				for i := a; i < b; i++ {
					model[i] = true
				}
			}
			var got [size]bool
			for i, sp := range s.spans {
				if sp.start >= sp.end || (i > 0 && s.spans[i-1].end >= sp.start) {
					t.Fatalf("round %d op %d: spans not normalized: %v", round, op, s.spans)
				}
				for x := sp.start; x < sp.end; x++ {
					got[x] = true
				}
			}
			if got != model {
				t.Fatalf("round %d op %d: spans %v do not match the model", round, op, s.spans)
			}
		}
	}
}
