package queue

import (
	"math/rand"
	"testing"
)

// tableOps drives a Table and a map through one operation stream and
// checks after every step that they hold the same entries and that the
// table's order is the key order. Each op is two bytes: a verb and a key
// from a small space (so inserts collide, deletes miss and pop-below
// sweeps part of the table). Values count the ops, so a replaced or stale
// value cannot pass for the right one.
func tableOps(t *testing.T, ops []byte) {
	t.Helper()
	var tab Table[int64, int]
	ref := map[int64]int{}
	for n := 0; n+1 < len(ops); n += 2 {
		k := int64(ops[n+1] % 48)
		switch ops[n] % 7 {
		case 0, 1: // insert; a held key keeps its value
			i, fresh := tab.Insert(k, n)
			if _, held := ref[k]; held == fresh {
				t.Fatalf("op %d: Insert(%d) fresh=%v, reference held=%v", n, k, fresh, held)
			}
			if fresh {
				ref[k] = n
			}
			if tab[i].Key != k || tab[i].Val != ref[k] {
				t.Fatalf("op %d: Insert(%d) = index %d holding %+v, want value %d", n, k, i, tab[i], ref[k])
			}
		case 2: // replace, through the returned index or with Put
			if k%2 == 0 {
				tab.Put(k, n)
			} else if i, fresh := tab.Insert(k, n); !fresh {
				tab[i].Val = n
			}
			ref[k] = n
		case 3: // delete, possibly missing
			i := tab.Find(k)
			if _, held := ref[k]; held != (i >= 0) {
				t.Fatalf("op %d: Find(%d) = %d, reference held=%v", n, k, i, held)
			}
			if i >= 0 {
				tab.Delete(i)
				delete(ref, k)
			}
		case 4: // pop below
			want := 0
			for rk := range ref {
				if rk < k {
					delete(ref, rk)
					want++
				}
			}
			if got := tab.PopBelow(k); got != want {
				t.Fatalf("op %d: PopBelow(%d) = %d, want %d", n, k, got, want)
			}
		case 5:
			tab.Reset()
			clear(ref)
		case 6: // delete every entry whose value shares k's residue mod 3
			del := func(_ int64, v int) bool { return v%3 == int(k%3) }
			for rk, rv := range ref {
				if del(rk, rv) {
					delete(ref, rk)
				}
			}
			tab.DeleteFunc(del)
		}
		if len(tab) != len(ref) {
			t.Fatalf("op %d: table holds %d entries, reference %d", n, len(tab), len(ref))
		}
		for i, e := range tab {
			if i > 0 && tab[i-1].Key >= e.Key {
				t.Fatalf("op %d: keys out of order at %d: %v", n, i, tab)
			}
			if v, held := ref[e.Key]; !held || v != e.Val {
				t.Fatalf("op %d: table holds %+v, reference %d (held=%v)", n, e, v, held)
			}
			if tab.Find(e.Key) != i {
				t.Fatalf("op %d: Find(%d) = %d, want %d", n, e.Key, tab.Find(e.Key), i)
			}
		}
		// The minimum is element 0, and a key the reference lacks is not found.
		for probe := int64(-1); probe <= 48; probe++ {
			if _, held := ref[probe]; !held && tab.Find(probe) >= 0 {
				t.Fatalf("op %d: Find(%d) found a key the reference lacks", n, probe)
			}
		}
		// Vacated storage holds no stale entries (a pointer-valued table
		// must not pin what it no longer holds).
		for _, e := range tab[len(tab):cap(tab)] {
			if e.Key != 0 || e.Val != 0 {
				t.Fatalf("op %d: vacated slot still holds %+v", n, e)
			}
		}
	}
}

// TestTableMatchesMapReference: random operation streams, biased the way
// the run path is (mostly ascending inserts, deletes near the front) and
// not at all.
func TestTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ops := make([]byte, 2*(1+rng.Intn(200)))
		next := byte(0)
		for n := 0; n < len(ops); n += 2 {
			ops[n], ops[n+1] = byte(rng.Intn(256)), byte(rng.Intn(256))
			if round%2 == 0 && rng.Intn(4) > 0 {
				// In-order traffic: ascending inserts, pops at the bottom.
				next++
				ops[n], ops[n+1] = byte(rng.Intn(2)), next%48
				if rng.Intn(3) == 0 {
					ops[n] = 4
				}
			}
		}
		tableOps(t, ops)
	}
}

// FuzzTable explores the same differential check. Runs its seeds under
// plain `go test`; `go test -fuzz=FuzzTable ./internal/queue` explores.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 2, 3, 3, 3, 9})          // in order, pop below, delete, delete missing
	f.Add([]byte{0, 9, 0, 3, 0, 5, 0, 3, 2, 5, 0, 1, 4, 6})    // out of order, duplicate, replace
	f.Add([]byte{0, 7, 5, 0, 3, 7, 4, 40, 0, 47, 0, 0, 4, 47}) // reset, empty-table ops, both ends
	f.Fuzz(tableOps)
}

// TestTableZeroValueAndEnds pins the cases the call sites lean on.
func TestTableZeroValueAndEnds(t *testing.T) {
	var tab Table[uint64, string]
	if tab.Find(3) != -1 || tab.PopBelow(10) != 0 {
		t.Fatal("the zero table is not empty")
	}
	tab.Reset()
	for _, k := range []uint64{5, 9, 7} {
		tab.Insert(k, "v")
	}
	if tab[0].Key != 5 || tab[len(tab)-1].Key != 9 {
		t.Fatalf("ends = %d..%d, want 5..9", tab[0].Key, tab[len(tab)-1].Key)
	}
	for k, want := range map[uint64]int{4: -1, 5: 0, 6: -1, 7: 1, 8: -1, 9: 2, 10: -1} {
		if got := tab.Find(k); got != want {
			t.Errorf("Find(%d) = %d, want %d", k, got, want)
		}
	}
	tab.Delete(2)
	tab.Delete(0)
	if len(tab) != 1 || tab[0].Key != 7 {
		t.Fatalf("after deleting both ends: %v", tab)
	}
}
