package sim

import "math/rand"

// source is the one rand.Source64 behind every RNG: math/rand's additive
// lagged-Fibonacci generator (607 words, tap 273), stream for stream, with
// the seeding moved from the constructor to first use.
//
// math/rand seeds the register by walking a Lehmer generator
// (x <- 48271 x mod 2^31-1) through 1841 steps and folding three
// consecutive values and one fixed constant into each word, which costs
// ~13 us per source — more than many channels ever spend drawing. A Lehmer
// generator jumps ahead in O(1) (x_k = 48271^k x_0 mod m), so word i can be
// computed on its own from the seed and one table of 607 powers; and the
// generator first reads its words in a fixed order (draw n reads words
// 334-n and 607-n), so "not yet seeded" needs no bookkeeping beyond whether
// the feed index has wrapped. A source that draws six times seeds twelve
// words; after 334 draws every word is seeded and the draw is math/rand's
// two-index add.
type source struct {
	tap, feed int
	// lazy holds from Seed until the feed index reaches word 0: until
	// then each draw seeds the words it reads.
	lazy bool
	x0   uint64 // the normalised seed, in [1, 2^31-2]
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// seedSkip is how many Lehmer steps math/rand discards before the
	// first word; each word then consumes three.
	seedSkip = 20
)

// seedPow[i] is 48271^(seedSkip+1+3i) mod 2^31-1: multiplying the seed by
// it lands on the first of word i's three Lehmer values. rngCooked[i] is
// math/rand's additive constant for word i.
var seedPow, rngCooked = seedTables()

// seedTables computes the jump table and recovers math/rand's unexported
// rngCooked constants from one reference stream: 607 outputs determine the
// seeded register exactly, and the register is the constants XOR the
// (known) Lehmer words. Reading them from the library rather than carrying
// a copy keeps this file a description of the algorithm only; the equality
// test in source_test.go is the judge of both.
func seedTables() (pow [rngLen]uint64, cooked [rngLen]int64) {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = p * lehmerA % lehmerM
	}
	for i := range pow {
		pow[i] = p
		p = p * (lehmerA * lehmerA % lehmerM * lehmerA % lehmerM) % lehmerM
	}

	const refSeed = 1
	ref := rand.NewSource(refSeed).(rand.Source64)
	var out [rngLen + 1]int64 // out[n] is the n-th draw, 1-based
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(ref.Uint64())
	}
	// Draw n adds words feed=334-n and tap=607-n (indices mod 607) and
	// stores the sum in the feed word. Past draw 273 the tap word is an
	// earlier sum, which isolates the other operand; the first 273 draws
	// then give up their feed words.
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		vec[(rngLen-rngTap-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		vec[rngLen-rngTap-n] = out[n] - vec[rngLen-n]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(pow[i], refSeed)
	}
	return pow, cooked
}

// Seed implements rand.Source. It only records the seed; words are
// computed when the generator first reads them.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.lazy = true
}

// lehmerWord is one register word before the additive constant: the three
// consecutive Lehmer values starting at pow*x0, packed at bit offsets 40,
// 20 and 0.
func lehmerWord(pow, x0 uint64) int64 {
	x := pow * x0 % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	return u ^ int64(x)
}

// Int63 implements rand.Source, and is the generator's step: math/rand's
// two-index add, preceded while the lazy phase lasts by seeding the words
// this draw is the first to read — the feed word, and the tap word while
// tap is still above the feed's start. The seeding is written out here
// rather than called (lehmerWord inlines) so that, once the lazy phase is
// over, one well-predicted branch is all this costs over math/rand's
// step; a call in the body measured ~10 % on the draw.
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy {
		s.vec[s.feed] = lehmerWord(seedPow[s.feed], s.x0) ^ rngCooked[s.feed]
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = lehmerWord(seedPow[s.tap], s.x0) ^ rngCooked[s.tap]
		}
		s.lazy = s.feed != 0
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64: the same step, returning the whole
// word it stored where Int63 drops the top bit. (Every distribution
// method RNG exposes reaches Int63; this is here so the stream is
// math/rand's through rand.Rand.Uint64 too.)
func (s *source) Uint64() uint64 {
	s.Int63()
	return uint64(s.vec[s.feed])
}
