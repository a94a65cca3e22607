package errmodel

import (
	"errors"
	"math"
	"testing"
	"time"

	"wtcp/internal/sim"
)

// cacheCfgs are the channels the cursor-bounds differential runs on: the
// paper's two, an always-good one (its newest interval grows without a
// new one starting, so the cursor's hi falls short of the interval's
// end), a deterministic one, and holding times shorter than a query.
var cacheCfgs = []Config{
	PaperLAN(500 * time.Millisecond),
	PaperWAN(4 * time.Second),
	{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: time.Second, MeanBad: 0, Start: Good},
	{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: 300 * time.Millisecond, MeanBad: 200 * time.Millisecond, Deterministic: true, Start: Bad},
	{GoodBER: 1e-5, BadBER: 1e-3, MeanGood: 2 * time.Millisecond, MeanBad: time.Millisecond, Start: Good},
}

// queryPair drives a Markov and its cache-free twin (searchRef, same
// seed) through one program, failing t on the first answer that differs.
type queryPair struct {
	t   *testing.T
	m   *Markov
	ref *searchRef
	// limit bounds every query time, so a program cannot draw an
	// unbounded timeline.
	limit time.Duration
}

func newQueryPair(t *testing.T, cfg Config, seed int64) *queryPair {
	return &queryPair{t: t, m: mustMarkov(t, cfg, seed), ref: &searchRef{m: mustMarkov(t, cfg, seed)},
		limit: 1000 * (cfg.MeanGood + cfg.MeanBad)}
}

func (p *queryPair) clamp(d time.Duration) time.Duration {
	return min(max(d, -time.Millisecond), p.limit)
}

// expected asks both for ExpectedBitErrors(start, end), then StateAt at
// start (before anything else moves the cursor) and at end, comparing the
// fault latch and the retained windows after each.
func (p *queryPair) expected(op string, start, end time.Duration) {
	p.t.Helper()
	start, end = p.clamp(start), p.clamp(end)
	g, w := p.m.ExpectedBitErrors(start, end, 12288), p.ref.expectedBitErrors(start, end, 12288)
	if math.Float64bits(g) != math.Float64bits(w) {
		p.t.Fatalf("%s: ExpectedBitErrors(%v, %v) = %v, search gives %v", op, start, end, g, w)
	}
	p.same(op)
	p.stateAt(op, start)
	p.stateAt(op, end)
}

func (p *queryPair) stateAt(op string, at time.Duration) {
	p.t.Helper()
	at = p.clamp(at)
	if g, w := p.m.StateAt(at), p.ref.stateAt(at); g != w {
		p.t.Fatalf("%s: StateAt(%v) = %v, search gives %v", op, at, g, w)
	}
	p.same(op)
}

func (p *queryPair) forget(at time.Duration) {
	at = p.clamp(at)
	p.m.Forget(at)
	p.ref.m.Forget(at)
}

// same checks the fault latch and the two retained windows.
func (p *queryPair) same(op string) {
	p.t.Helper()
	if (p.m.Err() != nil) != p.ref.forgotten {
		p.t.Fatalf("%s: latched %v, search lost its interval: %v", op, p.m.Err(), p.ref.forgotten)
	}
	if p.m.Err() != nil && !errors.Is(p.m.Err(), ErrForgotten) {
		p.t.Fatalf("%s: latched %v, want ErrForgotten", op, p.m.Err())
	}
	if len(p.m.timeline) != len(p.ref.m.timeline) || p.m.timeline[0] != p.ref.m.timeline[0] || p.m.horizon != p.ref.m.horizon {
		p.t.Fatalf("%s: the two windows differ", op)
	}
}

// TestCursorBoundsEqualSearch walks every interval edge of a drawn
// timeline with the cursor parked on the interval before it, and asks
// what the cursor's bounds could answer wrongly: a query starting
// exactly at the cursor's end with its end before its start, one ending
// exactly at an interval's end (the newest one's end is the horizon,
// where the search draws the next holding time), StateAt on both sides
// of the edge — then slides the window over the cursor's interval and
// asks inside it again, which must latch ErrForgotten as the search
// loses it.
func TestCursorBoundsEqualSearch(t *testing.T) {
	for ci, cfg := range cacheCfgs {
		for seed := int64(1); seed <= 3; seed++ {
			p := newQueryPair(t, cfg, seed)
			p.expected("warm", 0, 20*(cfg.MeanGood+cfg.MeanBad))
			for j := 0; j+1 < len(p.ref.m.timeline); j++ {
				tl := p.ref.m.timeline
				lo, hi := tl[j].start, tl[j+1].start
				if hi-lo < 2 {
					continue
				}
				mid := lo + (hi-lo)/2
				for _, q := range [][2]time.Duration{
					{hi, hi - 1},  // start at the cursor's end, end before it
					{hi, lo},      // the same, end at the cursor's start
					{mid, hi},     // end exactly at the interval's end
					{hi - 1, hi},  // the last nanosecond
					{hi, hi},      // instantaneous, on the next start
					{mid, hi + 1}, // one nanosecond into the next
				} {
					p.stateAt("park", mid)
					p.expected("edge", q[0], q[1])
				}
			}
			// The newest interval: its end is the horizon.
			h := p.m.horizon
			p.stateAt("park", h-1)
			p.expected("horizon", h-1, h)
			// Park on an interval, promise past it, and straddle from it
			// to far beyond the horizon: the extension compacts the
			// parked interval away, so the query loses its start, and a
			// second question inside that interval must not be answered
			// from the cursor.
			if cfg.MeanBad > 0 {
				tl := p.ref.m.timeline
				parked := tl[len(tl)/2].start
				p.stateAt("park", parked)
				p.forget(tl[len(tl)-1].start)
				p.expected("straddle", parked, p.m.horizon+200*(cfg.MeanGood+cfg.MeanBad))
				p.stateAt("below", parked)
				if p.m.Err() == nil {
					t.Errorf("cfg %d seed %d: a query in a compacted interval answered", ci, seed)
				}
			}
		}
	}
}

// TestMarkovsEqualSeparateChannels pins the slab: channel i of
// NewMarkovs answers as a NewMarkov on the i-th split of the same root,
// and a timeline that outgrows its slice of the slab (no Forget) moves
// out without touching its neighbour's.
func TestMarkovsEqualSeparateChannels(t *testing.T) {
	cfg := PaperLAN(time.Second)
	slab, err := NewMarkovs(cfg, 3, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	root := sim.NewRNG(9)
	for i := range slab {
		one, err := NewMarkov(cfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		for at := time.Duration(0); at < 10*time.Minute; at += 37 * time.Millisecond {
			g, w := slab[i].ExpectedBitErrors(at, at+time.Millisecond, 8000), one.ExpectedBitErrors(at, at+time.Millisecond, 8000)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("channel %d at %v: slab %v, alone %v", i, at, g, w)
			}
		}
		if len(slab[i].timeline) <= windowCap {
			t.Fatalf("channel %d kept %d intervals: the test never outgrew the slab", i, len(slab[i].timeline))
		}
	}
	if _, err := NewMarkovs(Config{}, 2, sim.NewRNG(1)); err == nil {
		t.Error("NewMarkovs accepted a zero config")
	}
}

// FuzzMarkovQueries runs arbitrary programs of queries and Forgets
// against a Markov and its cache-free twin: every ExpectedBitErrors and
// StateAt answer must be Float64bits-equal to a plain search's, the
// fault must latch on the same query, and the retained windows must
// stay the same. Each op is four bytes: what to do, which interval edge
// to anchor at, and two signed offsets from it.
func FuzzMarkovQueries(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 1, 0, 255, 1, 2, 10, 0})
	f.Add([]byte{1, 3, 3, 0, 2, 5, 0, 0, 4, 0, 0, 0, 3, 9, 0, 128, 5, 2, 1, 1})
	f.Add([]byte{4, 4, 4, 4, 2, 7, 200, 0, 3, 0, 0, 255, 0, 7, 100, 20, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 1 {
			return
		}
		cfg := cacheCfgs[int(prog[0])%len(cacheCfgs)]
		p := newQueryPair(t, cfg, int64(prog[0])/int64(len(cacheCfgs))+1)
		scale := cfg.MeanGood / 64
		// off turns a byte into a signed offset: a few nanoseconds (an
		// edge and its neighbours) or a fraction of a holding time.
		off := func(b byte) time.Duration {
			if b&1 == 0 {
				return time.Duration(int8(b) >> 1)
			}
			return time.Duration(int8(b)>>1) * scale
		}
		now := time.Duration(0)
		for i := 1; i+3 < len(prog); i += 4 {
			op, edge, a, b := prog[i], prog[i+1], prog[i+2], prog[i+3]
			tl := p.ref.m.timeline
			at := p.ref.m.horizon
			if k := int(edge) % (len(tl) + 1); k < len(tl) {
				at = tl[k].start
			}
			switch op % 6 {
			case 0: // a query anchored at an interval edge
				p.expected("edge", at+off(a), at+off(a)+off(b))
			case 1:
				p.stateAt("state", at+off(a))
			case 2: // a promise, usually near the present
				now = max(now, p.clamp(at+off(a)))
				p.forget(now + off(b))
			case 3: // anchored at the cursor's own end
				hi := p.m.hi
				p.expected("cursor", hi+off(a), hi+off(b))
			case 4: // the present moves on
				now = p.clamp(now + time.Duration(b)*scale)
				p.expected("forward", now, now+off(a))
			default: // below the window
				first := tl[0].start
				p.expected("below", first-off(a)-1, first+off(b))
			}
		}
	})
}
