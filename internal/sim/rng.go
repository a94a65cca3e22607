package sim

import (
	"math"
	"math/rand"
)

// RNG is the simulation's source of randomness. Every stochastic component
// (error channel, ARQ backoff) draws from an RNG derived from the
// scenario seed so that a run is reproducible from (config, seed) alone.
//
// RNG wraps math/rand.Rand rather than exposing it so the distributions the
// paper's model needs (exponential holding times, Poisson-thinned bit
// errors) live next to the kernel and are tested once.
type RNG struct {
	r *rand.Rand
	// src is r's source, held by value so a generator is two allocations,
	// not three (a 10 000-flow cell builds 10 000 of them).
	src source
	// hit remembers 1-exp(-mean) for the last few distinct means
	// PoissonAtLeastOne was asked about, keyed by the mean's bits, and
	// next is the entry the next new mean replaces. A zero key is free:
	// a zero mean never reaches the table.
	hit [4]struct {
		mean uint64
		p    float64
	}
	next uint8
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Split derives an independent child generator. Components should each own
// a child so that adding a new consumer does not perturb the draw sequence
// of existing ones.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Exp returns an exponentially distributed draw with the given mean.
// A non-positive mean returns zero.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// PoissonAtLeastOne reports whether a Poisson draw with the given mean is
// at least one, i.e. true with probability 1-exp(-mean). This is the
// corruption test for a transmission whose expected bit-error count is
// mean; sampling the indicator directly avoids generating the full count.
func (g *RNG) PoissonAtLeastOne(mean float64) bool {
	if mean <= 0 {
		return false
	}
	return g.r.Float64() < g.hitProb(mean)
}

// hitProb is -expm1(-mean), which costs several draws' worth of time, and
// which a run asks for with a handful of distinct means: one per channel
// state and frame size, plus the odd transmission that straddles a state
// change. The value remembered is the function's own result for the same
// bits, so remembering it cannot change a draw.
func (g *RNG) hitProb(mean float64) float64 {
	key := math.Float64bits(mean)
	for i := range g.hit {
		if g.hit[i].mean == key {
			return g.hit[i].p
		}
	}
	p := -math.Expm1(-mean)
	e := &g.hit[g.next%uint8(len(g.hit))]
	e.mean, e.p = key, p
	g.next++
	return p
}
