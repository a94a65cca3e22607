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
			out[i] = math.Float64bits(g.r.NormFloat64())
		case 4:
			out[i] = uint64(g.r.Intn(i + 1))
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
// drawn 273 times or fewer holds no register, draw 274 allocates exactly
// one, no later draw allocates, and Seed lets it go.
func TestSourceSeedsOnlyWhatItReads(t *testing.T) {
	s := new(source)
	s.Seed(7)
	if n := testing.AllocsPerRun(1, func() {
		s.Seed(7)
		for i := 0; i < rngTap; i++ {
			s.Uint64()
		}
	}); n != 0 || s.vec != nil {
		t.Fatalf("%d draws: %v allocations, register %v; want none", rngTap, n, s.vec != nil)
	}
	var first *[rngLen]int64
	if n := testing.AllocsPerRun(1, func() {
		s.Seed(7)
		for i := 0; i < rngTap+1; i++ {
			s.Uint64()
		}
		first = s.vec
		for i := 0; i < 3*rngLen; i++ {
			s.Uint64()
		}
	}); n != 1 || first == nil || s.vec != first {
		t.Fatalf("draw %d on: %v allocations, register %v, kept %v; want exactly one, kept", rngTap+1, n, first != nil, s.vec == first)
	}
	if s.Seed(7); s.vec != nil {
		t.Fatal("Seed kept the previous stream's register")
	}
}

// TestSourceRegisterEdge walks the two edges of the lazy phase — draw
// 273/274, where the register appears, and draw 334/335, where seeding
// ends — from every side: a stream drawn to just before, onto and past
// each edge and then continued, Int63 and Uint64 alternating across it
// (they take different paths while the source is lazy), a reseed from each
// depth, and a Split child (a fresh source seeded by the parent's next
// draw) taken at each depth and itself drawn to it.
func TestSourceRegisterEdge(t *testing.T) {
	edges := []int{272, 273, 274, 275, 333, 334, 335}
	for _, used := range edges {
		for phase := 0; phase < 2; phase++ {
			s, ref := new(source), rand.NewSource(5).(rand.Source64)
			s.Seed(5)
			step := func(i int) {
				t.Helper()
				if (i+phase)%2 == 0 {
					if g, w := s.Int63(), ref.Int63(); g != w {
						t.Fatalf("used=%d phase=%d: Int63 draw %d is %#x, math/rand gives %#x", used, phase, i+1, g, w)
					}
				} else if g, w := s.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("used=%d phase=%d: Uint64 draw %d is %#x, math/rand gives %#x", used, phase, i+1, g, w)
				}
			}
			for i := 0; i < used; i++ {
				step(i)
			}
			// A child split off here and drawn to the same depth.
			got, want := NewRNG(s.Int63()), refRNG(ref.Int63())
			g, w := drawMixed(got, used+2), drawMixed(want, used+2)
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("used=%d: split child draw %d is %#x, math/rand gives %#x", used, i, g[i], w[i])
				}
			}
			for i := used + 1; i < used+2*rngLen; i++ {
				step(i)
			}
			// Reseed from this depth of a second stream.
			s.Seed(5)
			for i := 0; i < used; i++ {
				s.Int63()
			}
			s.Seed(-9)
			ref = rand.NewSource(-9).(rand.Source64)
			for i := 0; i < 2*rngLen; i++ {
				step(i)
			}
		}
	}
}
