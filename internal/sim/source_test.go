package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refRNG is an RNG over math/rand's own source: the stream NewRNG must
// reproduce bit for bit.
func refRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// drawMixed takes n draws from g through every method the simulator uses,
// in a pattern fixed by the draw index, and returns them as raw bits.
func drawMixed(g *RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = uint64(g.Int63())
		case 1:
			out[i] = math.Float64bits(g.Float64())
		case 2:
			out[i] = math.Float64bits(g.Exp(4e9))
		case 3:
			out[i] = math.Float64bits(g.Norm())
		case 4:
			out[i] = uint64(g.Intn(i + 1))
		case 5:
			out[i] = uint64(g.r.Uint64())
		default:
			if g.PoissonAtLeastOne(0.3) {
				out[i] = 1
			}
		}
	}
	return out
}

// TestSourceMatchesMathRand carries the bit-identity claim for the lazily
// seeded source: over the edge seeds of math/rand's seed normalisation and
// a few hundred random ones, several thousand mixed draws (well past the
// 334 that finish the lazy phase, and past several laps of the register)
// and a three-deep Split chain all equal math/rand's.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, lehmerM, -lehmerM, lehmerM + 1, lehmerM - 1,
		1 << 31, 2 * lehmerM, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	pick := rand.New(rand.NewSource(20260929))
	for len(seeds) < 13+320 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(pick.Uint64()))
		case 1:
			seeds = append(seeds, pick.Int63n(1<<20)) // small seeds, as sweeps use
		default:
			seeds = append(seeds, pick.Int63()) // Split's seeds
		}
	}
	const draws = 3500
	for _, seed := range seeds {
		got, want := NewRNG(seed), refRNG(seed)
		g, w := drawMixed(got, draws), drawMixed(want, draws)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("seed %d: draw %d is %#x, math/rand gives %#x", seed, i, g[i], w[i])
			}
		}
		// Split seeds a child from the parent's next Int63: three
		// generations, each drawn a different depth into its lazy phase.
		for depth, n := range []int{5, 300, 700} {
			got, want = got.Split(), refRNG(want.r.Int63())
			g, w = drawMixed(got, n), drawMixed(want, n)
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("seed %d, split depth %d: draw %d is %#x, math/rand gives %#x", seed, depth+1, i, g[i], w[i])
				}
			}
		}
	}
}

// TestSourceReseed checks Seed restarts the stream from any point of the
// previous one (rand.Source's contract), including mid-lazy-phase.
func TestSourceReseed(t *testing.T) {
	for _, used := range []int{0, 3, 333, 334, 335, 2000} {
		s := new(source)
		s.Seed(11)
		for i := 0; i < used; i++ {
			s.Uint64()
		}
		s.Seed(42)
		ref := rand.NewSource(42).(rand.Source64)
		for i := 0; i < 1500; i++ {
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("after %d draws then Seed: draw %d is %#x, math/rand gives %#x", used, i, g, w)
			}
		}
	}
}

// TestSourceSeedsOnlyWhatItReads pins the mechanism: a source that has
// drawn k times (k <= 273) has filled exactly 2k words.
func TestSourceSeedsOnlyWhatItReads(t *testing.T) {
	s := new(source)
	s.Seed(7)
	const k = 6
	for i := 0; i < k; i++ {
		s.Uint64()
	}
	filled := 0
	for _, w := range s.vec {
		if w != 0 {
			filled++
		}
	}
	if filled != 2*k {
		t.Fatalf("%d draws filled %d words, want %d", k, filled, 2*k)
	}
}
