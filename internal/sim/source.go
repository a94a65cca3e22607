package sim

import "math/rand"

// source is the one rand.Source64 behind every RNG: math/rand's additive
// lagged-Fibonacci generator (607 words, tap 273), stream for stream, with
// the seeding moved from the constructor to first use and the register
// itself moved from the constructor to the 274th draw.
//
// math/rand seeds the register by walking a Lehmer generator
// (x <- 48271 x mod 2^31-1) through 1841 steps and folding three
// consecutive values and one fixed constant into each word, which costs
// ~13 us per source — more than many channels ever spend drawing. A Lehmer
// generator jumps ahead in O(1) (x_k = 48271^k x_0 mod m), so word i can be
// computed on its own from the seed and one table of 607 powers; and the
// generator first reads its words in a fixed order (draw n reads words
// 334-n and 607-n), so "not yet seeded" needs no bookkeeping beyond whether
// the feed index has wrapped. Three things are therefore put off, each
// until a draw needs it:
//
//   - Draws 1-273 need nothing stored. Both words draw n adds are seed
//     words no draw has written, and the sum it would store at 334-n is
//     not read again before draw n+273: the draw is a function of the
//     seed and n, computed and returned. A source that stops here — a
//     cell flow's channel stream draws a dozen times — is its seed and
//     two indices.
//   - Draw 274 is the first to read a stored sum (draw 1's). It allocates
//     the register and fills the 546 words the first 273 draws would
//     have left in it.
//   - Draws 274-334 each still seed the one word they are first to read
//     (60 down to 0); after that every word is seeded and the draw is
//     math/rand's two-index add.
type source struct {
	tap, feed int
	// lazy holds from Seed until the feed index reaches word 0: until
	// then a draw computes or seeds the words it reads (lazyStep). It is
	// the one test the steady-state draw pays for all three phases.
	lazy bool
	x0   uint64 // the normalised seed, in [1, 2^31-2]
	// vec is nil until draw 274 (see materialise).
	vec *[rngLen]int64
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

// Seed implements rand.Source. It only records the seed, and lets go of
// the previous stream's register; words are computed when the generator
// first reads them.
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
	s.vec = nil
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

// word is register word i as Seed would have left it in math/rand.
func (s *source) word(i int) int64 {
	return lehmerWord(seedPow[i], s.x0) ^ rngCooked[i]
}

// Int63 implements rand.Source, and is the generator's step: math/rand's
// two-index add. Everything a young source does instead lives behind the
// one branch, out of line, so that a source past its lazy phase pays one
// well-predicted test over math/rand's step and nothing for the phases it
// has left.
func (s *source) Int63() int64 {
	if s.lazy {
		return s.lazyStep() & rngMask
	}
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	vec := s.vec
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64: the same step, returning the whole
// word where Int63 drops the top bit. (Every distribution method RNG
// exposes reaches Int63; this is here so the stream is math/rand's through
// rand.Rand.Uint64 too.)
func (s *source) Uint64() uint64 {
	if s.lazy {
		return uint64(s.lazyStep())
	}
	s.Int63()
	return uint64(s.vec[s.feed])
}

// lazyStep is the step for draws 1-334, returning the whole word. The
// feed index runs 333 down to 0 over them and never wraps; the tap index
// wraps once, on draw 1.
func (s *source) lazyStep() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.tap >= rngLen-rngTap {
		// Draws 1-273: the tap word is above the feed's start, so neither
		// operand has been written, and nothing reads this sum before the
		// register exists.
		return s.word(s.feed) + s.word(s.tap)
	}
	if s.vec == nil {
		s.materialise()
	}
	// The feed word is read for the first time; the tap word is a sum
	// materialise (or an earlier pass through here) stored.
	x := s.word(s.feed) + s.vec[s.tap]
	s.vec[s.feed] = x
	s.lazy = s.feed != 0
	return x
}

// materialise allocates the register as 273 stored draws would have left
// it: draw n's tap word 607-n as seeded, and beside it, at 334-n, the sum
// that draw returned. Words 60-0 stay zero until lazyStep reads them.
func (s *source) materialise() {
	s.vec = new([rngLen]int64)
	for tap := rngLen - 1; tap >= rngLen-rngTap; tap-- {
		w := s.word(tap)
		s.vec[tap] = w
		s.vec[tap-rngTap] = s.word(tap-rngTap) + w
	}
}
