// Package errmodel implements the paper's wireless-channel error model: a
// two-state Markov (Gilbert) process alternating between a good and a bad
// state, with Poisson-distributed bit errors in each state (mean BER 1e-6
// good, 1e-2 bad in the paper's experiments) and exponentially distributed
// state holding times.
//
// A deterministic variant with fixed holding times reproduces the channel
// used for the paper's Figures 3-5, where the authors "exactly duplicate
// the errors and state transitions" across the three compared schemes.
//
// The model is continuous-time. Links ask the channel for the expected
// number of bit errors over the exact interval a transmission occupies the
// medium; the per-transmission corruption indicator is then Poisson:
// P(corrupted) = 1 - exp(-mean). Integrating across state boundaries means
// a transmission that straddles a good-to-bad transition is corrupted with
// the correct intermediate probability rather than being attributed to a
// single state.
package errmodel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wtcp/internal/sim"
)

// State is the channel state.
type State int

// Channel states.
const (
	// Good is the low-BER state.
	Good State = iota + 1
	// Bad is the high-BER (deep fade) state.
	Bad
)

// String names the state for traces.
func (s State) String() string {
	switch s {
	case Good:
		return "good"
	case Bad:
		return "bad"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Channel is a continuous-time error process. Implementations must answer
// queries at arbitrary (including repeated or past) times; the simulation
// never queries beyond the horizon it has reached plus one transmission.
type Channel interface {
	// StateAt reports the channel state at virtual time t.
	StateAt(t time.Duration) State
	// ExpectedBitErrors reports the Poisson mean of bit errors for a
	// transmission of bits total bits occupying the medium over
	// [start, end), with the bits spread uniformly over the interval.
	ExpectedBitErrors(start, end time.Duration, bits int64) float64
}

// Config parameterizes the two-state model. The zero value is invalid; use
// the preset helpers or fill every field.
type Config struct {
	// GoodBER and BadBER are the mean bit error rates in each state.
	GoodBER float64
	BadBER  float64
	// MeanGood and MeanBad are the mean state holding times.
	MeanGood time.Duration
	MeanBad  time.Duration
	// Deterministic selects fixed holding times (exactly MeanGood /
	// MeanBad per visit) instead of exponential draws. Used for the
	// paper's trace figures.
	Deterministic bool
	// Start is the state at time zero. Defaults to Good if unset, as in
	// the paper ("the simulation starts with the wireless link in a good
	// state").
	Start State
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.GoodBER < 0 || c.BadBER < 0:
		return errors.New("errmodel: negative BER")
	case c.GoodBER > 1 || c.BadBER > 1:
		return errors.New("errmodel: BER above 1")
	case c.MeanGood <= 0:
		return errors.New("errmodel: non-positive mean good period")
	case c.MeanBad < 0:
		return errors.New("errmodel: negative mean bad period")
	default:
		return nil
	}
}

// GoodFraction reports the long-run fraction of time the channel spends in
// the good state, MeanGood / (MeanGood + MeanBad). The paper's theoretical
// maximum throughput is tput_max times this fraction.
func (c Config) GoodFraction() float64 {
	total := c.MeanGood + c.MeanBad
	if total <= 0 {
		return 1
	}
	return float64(c.MeanGood) / float64(total)
}

// PaperWAN returns the paper's wide-area channel: BER 1e-6 good / 1e-2
// bad, mean good period 10 s, and the given mean bad period (the paper
// sweeps 1-4 s).
func PaperWAN(meanBad time.Duration) Config {
	return Config{
		GoodBER:  1e-6,
		BadBER:   1e-2,
		MeanGood: 10 * time.Second,
		MeanBad:  meanBad,
		Start:    Good,
	}
}

// PaperLAN returns the paper's local-area channel: mean good period 4 s
// and the given mean bad period (the paper sweeps 0.4-1.6 s).
func PaperLAN(meanBad time.Duration) Config {
	return Config{
		GoodBER:  1e-6,
		BadBER:   1e-2,
		MeanGood: 4 * time.Second,
		MeanBad:  meanBad,
		Start:    Good,
	}
}

// interval is one constant-state stretch of the generated timeline.
type interval struct {
	start time.Duration
	state State
}

// ErrForgotten is the fault a Markov latches (see Err) when a query
// reaches before the window Forget left it: the state there has been
// discarded, and no answer is better than a wrong one.
var ErrForgotten = errors.New("errmodel: query before the retained window")

// Markov is the stochastic (or deterministic-period) two-state channel. It
// generates its state timeline lazily and caches it, so repeated queries
// over the same horizon are cheap and consistent.
//
// By default the whole timeline is kept and any past time can be queried.
// A caller whose queries only move forward can bound the memory with
// Forget: the timeline then becomes a sliding window whose capacity
// plateaus at the few intervals between the oldest time still needed and
// the newest one asked about. Holding times are drawn in the same order
// from the same stream either way, so forgetting never changes an answer —
// it can only refuse one.
type Markov struct {
	// lo, hi, state and ber describe the cursor's interval (see cur):
	// [lo, hi), its state and that state's BER, all of it in the record
	// itself, so a query inside that interval reads nothing else. hi may
	// fall short of where the interval really ends (the newest one of an
	// always-good channel grows), and lo == hi marks no interval at all.
	lo, hi time.Duration
	state  State
	ber    float64

	cfg Config
	rng *sim.RNG

	// timeline holds the retained intervals in increasing start order;
	// timeline[0] starts at 0 until Forget lets extendTo reuse it. horizon
	// is the time up to which the timeline is complete (the next
	// interval's start).
	timeline []interval
	horizon  time.Duration
	// floor is Forget's promise: no later query reaches before it.
	floor time.Duration
	// cur is the index of the interval the last query landed in. A
	// link's queries move forward a transmission at a time and intervals
	// are thousands of transmissions long, so the next answer is almost
	// always there or one further on; locate looks before it searches.
	cur int
	// err latches the first query that broke the promise far enough to
	// land on a discarded interval.
	err error
}

var _ Channel = (*Markov)(nil)

// NewMarkov builds a channel from cfg, drawing holding times from rng
// (ignored when cfg.Deterministic). It returns an error if cfg is invalid.
func NewMarkov(cfg Config, rng *sim.RNG) (*Markov, error) {
	ms, err := newMarkovs(cfg, 1, func() *sim.RNG { return rng })
	if err != nil {
		return nil, err
	}
	return &ms[0], nil
}

// NewMarkovs builds n channels from cfg in one slab, channel i drawing
// from the i-th of n root.Split() children: the records side by side and
// their timelines cut from one backing array, so a population of
// channels is two allocations, not two per channel.
func NewMarkovs(cfg Config, n int, root *sim.RNG) ([]Markov, error) {
	return newMarkovs(cfg, n, root.Split)
}

// windowCap is the room each timeline starts with: enough for the few
// intervals a sliding window spans (see Forget), so a windowed channel's
// timeline stays in its slab for its whole life.
const windowCap = 8

func newMarkovs(cfg Config, n int, rng func() *sim.RNG) ([]Markov, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Start == 0 {
		cfg.Start = Good
	}
	ms := make([]Markov, n)
	slab := make([]interval, n*windowCap)
	for i := range ms {
		m := &ms[i]
		m.cfg, m.rng = cfg, rng()
		m.timeline = append(slab[i*windowCap:i*windowCap:(i+1)*windowCap], interval{start: 0, state: cfg.Start})
		m.horizon = m.draw(cfg.Start)
	}
	return ms, nil
}

// draw returns a holding time for the given state.
func (m *Markov) draw(s State) time.Duration {
	mean := m.cfg.MeanGood
	if s == Bad {
		mean = m.cfg.MeanBad
	}
	if m.cfg.Deterministic {
		return mean
	}
	d := time.Duration(m.rng.Exp(float64(mean)))
	if d <= 0 {
		// An exactly-zero draw would stall timeline extension; clamp to
		// one nanosecond of virtual time.
		d = 1
	}
	return d
}

// Forget promises that no later query reaches before t, which lets the
// timeline reuse the slots of intervals that ended at or before t instead
// of growing. The promise only ever moves forward; an earlier t is
// ignored. A later query that breaks it and lands before the retained
// window fails closed: it latches ErrForgotten (see Err) and returns no
// state (StateAt 0, ExpectedBitErrors NaN). A Markov on which Forget is
// never called keeps its whole timeline.
func (m *Markov) Forget(t time.Duration) {
	if t > m.floor {
		m.floor = t
	}
}

// Err reports the first query that reached before the retained window
// (wrapping ErrForgotten), or nil.
func (m *Markov) Err() error { return m.err }

// extendTo generates intervals until the timeline covers t.
func (m *Markov) extendTo(t time.Duration) {
	for m.horizon <= t {
		last := m.timeline[len(m.timeline)-1].state
		next := Good
		if last == Good {
			next = Bad
		}
		// A zero mean bad period degenerates to an always-good channel;
		// skip the empty visit to keep intervals non-empty.
		if next == Bad && m.cfg.MeanBad == 0 {
			m.horizon += m.draw(Good)
			continue
		}
		if len(m.timeline) == cap(m.timeline) {
			m.dropForgotten()
		}
		m.timeline = append(m.timeline, interval{start: m.horizon, state: next})
		m.horizon += m.draw(next)
	}
}

// dropForgotten slides the retained intervals down over those that ended
// at or before the floor, so a full slice is reused rather than regrown
// whenever the window allows. With no Forget the floor is 0 and nothing
// ends there, so the timeline grows as it always has.
func (m *Markov) dropForgotten() {
	k := 0
	for k+1 < len(m.timeline) && m.timeline[k+1].start <= m.floor {
		k++
	}
	if k > 0 {
		m.timeline = m.timeline[:copy(m.timeline, m.timeline[k:])]
		if m.cur -= k; m.cur < 0 {
			m.cur, m.lo, m.hi = 0, 0, 0 // the cursor's interval is gone
		}
	}
}

// locate returns the index of the interval containing t, or -1 (latching
// ErrForgotten) when that interval has been discarded.
func (m *Markov) locate(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	m.extendTo(t)
	if first := m.timeline[0].start; t < first {
		if m.err == nil {
			m.err = fmt.Errorf("%w: t=%v, window starts at %v (floor %v)", ErrForgotten, t, first, m.floor)
		}
		return -1
	}
	// The cursor's interval or its successor, else a binary search for
	// the last interval starting at or before t.
	last := len(m.timeline) - 1
	if i := m.cur; m.timeline[i].start <= t {
		if i == last || t < m.timeline[i+1].start {
			return m.seek(i)
		}
		if i+1 == last || t < m.timeline[i+2].start {
			return m.seek(i + 1)
		}
	}
	lo, hi := 0, last
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.timeline[mid].start <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return m.seek(lo)
}

// seek moves the cursor to interval i and returns i.
func (m *Markov) seek(i int) int {
	m.cur = i
	m.lo, m.hi = m.timeline[i].start, m.end(i)
	m.state = m.timeline[i].state
	m.ber = m.berOf(m.state)
	return i
}

// end returns where interval i stops: the next one's start, or the
// horizon for the newest.
func (m *Markov) end(i int) time.Duration {
	if i+1 < len(m.timeline) {
		return m.timeline[i+1].start
	}
	return m.horizon
}

// StateAt implements Channel.
func (m *Markov) StateAt(t time.Duration) State {
	if m.lo <= t && t < m.hi {
		return m.state
	}
	i := m.locate(t)
	if i < 0 {
		return 0
	}
	return m.timeline[i].state
}

// berOf returns the bit error rate in state s.
func (m *Markov) berOf(s State) float64 {
	if s == Bad {
		return m.cfg.BadBER
	}
	return m.cfg.GoodBER
}

// ExpectedBitErrors implements Channel. The transmission's bits are spread
// uniformly over [start, end); the mean error count integrates the BER
// across every state interval the transmission overlaps.
func (m *Markov) ExpectedBitErrors(start, end time.Duration, bits int64) float64 {
	if bits <= 0 {
		return 0
	}
	if start < 0 {
		start = 0
	}
	// The transmission sees one state: all but a few do, and
	// instantaneous ones (degenerate configs, end <= start) are
	// attributed entirely to the state at start. The loop below would add
	// exactly this to zero, the one fraction being exactly 1. Inside the
	// cursor's interval that is all there is to it; end short of hi keeps
	// the answer from drawing a holding time the search below would.
	if m.lo <= start && start < m.hi && end < m.hi {
		return m.ber * float64(bits)
	}
	m.extendTo(end)
	first := m.locate(start)
	if first < 0 {
		return math.NaN()
	}
	if end <= m.end(first) {
		return m.ber * float64(bits)
	}
	total := float64(end - start)
	mean := 0.0
	for i := first; i < len(m.timeline); i++ {
		iv := m.timeline[i]
		ivEnd := m.end(i)
		lo, hi := maxDur(start, iv.start), minDur(end, ivEnd)
		if hi <= lo {
			if iv.start >= end {
				break
			}
			continue
		}
		frac := float64(hi-lo) / total
		mean += m.berOf(iv.state) * float64(bits) * frac
	}
	return mean
}

// Intervals returns a copy of the generated timeline up to horizon t, as
// (start, state) pairs — the whole of it unless Forget has let some go.
// Intended for tests and trace annotation.
func (m *Markov) Intervals(t time.Duration) []struct {
	Start time.Duration
	State State
} {
	m.extendTo(t)
	out := make([]struct {
		Start time.Duration
		State State
	}, 0, len(m.timeline))
	for _, iv := range m.timeline {
		if iv.start > t {
			break
		}
		out = append(out, struct {
			Start time.Duration
			State State
		}{iv.start, iv.state})
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
