package errmodel

import (
	"errors"
	"math"
	"testing"
	"time"

	"wtcp/internal/sim"
)

// TestWindowedMarkovEqualsUnbounded drives one Markov the way the cell
// engine does — query times that never decrease, each query looking back a
// little, Forget(the oldest time still needed) after each — beside a
// never-forgetting one on the same seed. Every answer must be bit-equal
// (forgetting moves no draw), the windowed timeline's capacity must
// plateau while the other's grows with the horizon, and a query below the
// retained window must yield the named fault, not a state.
func TestWindowedMarkovEqualsUnbounded(t *testing.T) {
	for _, cfg := range []Config{
		PaperLAN(500 * time.Millisecond),
		PaperWAN(4 * time.Second),
		{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: time.Second, MeanBad: 0, Start: Good},
		{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: 300 * time.Millisecond, MeanBad: 200 * time.Millisecond, Deterministic: true, Start: Bad},
	} {
		for seed := int64(1); seed <= 8; seed++ {
			win, full := mustMarkov(t, cfg, seed), mustMarkov(t, cfg, seed)
			pick := sim.NewRNG(seed * 7919)
			now := time.Duration(0)
			maxCap := 0
			for i := 0; i < 20000; i++ {
				// Mostly sub-interval steps, sometimes a jump of several
				// holding times (an idle flow's next packet).
				step := time.Duration(pick.Exp(float64(20 * time.Millisecond)))
				if pick.Bernoulli(0.01) {
					step = time.Duration(pick.Exp(float64(30 * time.Second)))
				}
				now += step
				back := time.Duration(pick.Exp(float64(2 * time.Millisecond)))
				if back > now {
					back = now
				}
				start := now - back
				win.Forget(start)

				if g, w := win.StateAt(now), full.StateAt(now); g != w {
					t.Fatalf("%+v seed %d: StateAt(%v) = %v, unbounded %v", cfg, seed, now, g, w)
				}
				end := now + time.Duration(pick.Intn(int(3*time.Millisecond)))
				g := win.ExpectedBitErrors(start, end, 12288)
				w := full.ExpectedBitErrors(start, end, 12288)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%+v seed %d: ExpectedBitErrors(%v, %v) = %v, unbounded %v", cfg, seed, start, end, g, w)
				}
				if g, w := win.StateAt(start), full.StateAt(start); g != w {
					t.Fatalf("%+v seed %d: look-back StateAt(%v) = %v, unbounded %v", cfg, seed, start, g, w)
				}
				if c := cap(win.timeline); c > maxCap {
					maxCap = c
				}
			}
			if err := win.Err(); err != nil {
				t.Fatalf("%+v seed %d: in-window queries latched %v", cfg, seed, err)
			}
			// ~20 000 steps of 20 ms plus ~200 long jumps cross hundreds to
			// thousands of intervals; the window never spans more than one
			// long jump's worth.
			if cfg.MeanBad > 0 && len(full.timeline) < 8*maxCap {
				t.Errorf("%+v seed %d: unbounded timeline %d intervals, windowed capacity %d — no plateau", cfg, seed, len(full.timeline), maxCap)
			}
			if maxCap > 512 {
				t.Errorf("%+v seed %d: windowed capacity reached %d", cfg, seed, maxCap)
			}

			// Below the window: the named fault, latched once, and no value.
			if cfg.MeanBad == 0 {
				continue // one interval forever: nothing is ever discarded
			}
			if first := win.timeline[0].start; first == 0 {
				t.Fatalf("%+v seed %d: window still starts at 0 after %v", cfg, seed, now)
			}
			if s := win.StateAt(0); s != 0 {
				t.Fatalf("StateAt below the window = %v, want no state", s)
			}
			first := win.Err()
			if !errors.Is(first, ErrForgotten) {
				t.Fatalf("Err() = %v, want ErrForgotten", first)
			}
			if v := win.ExpectedBitErrors(0, now, 100); !math.IsNaN(v) {
				t.Fatalf("ExpectedBitErrors reaching below the window = %v, want NaN", v)
			}
			if v := win.ExpectedBitErrors(time.Millisecond, time.Millisecond, 100); !math.IsNaN(v) {
				t.Fatalf("instantaneous ExpectedBitErrors below the window = %v, want NaN", v)
			}
			if win.Err() != first {
				t.Fatal("latched fault overwritten")
			}
			// The window itself still answers.
			if g, w := win.StateAt(now), full.StateAt(now); g != w {
				t.Fatalf("StateAt(%v) after the fault = %v, unbounded %v", now, g, w)
			}
		}
	}
}

// TestForgetIsMonotoneAndLazy pins the two edges of the contract: an
// earlier Forget does not lower the floor, and Forget alone discards
// nothing — slots are only reused when the timeline would otherwise grow,
// so a time at or after the floor is always answerable.
func TestForgetIsMonotoneAndLazy(t *testing.T) {
	m := mustMarkov(t, PaperLAN(500*time.Millisecond), 3)
	ref := mustMarkov(t, PaperLAN(500*time.Millisecond), 3)
	m.StateAt(10 * time.Minute)
	m.Forget(9 * time.Minute)
	m.Forget(time.Minute)
	if m.floor != 9*time.Minute {
		t.Fatalf("floor %v after Forget(9m), Forget(1m)", m.floor)
	}
	if g, w := m.StateAt(time.Second), ref.StateAt(time.Second); g != w || m.Err() != nil {
		t.Fatalf("already-generated past before any reuse: %v (err %v), want %v", g, m.Err(), w)
	}
	m.StateAt(time.Hour) // grows through several reuses
	for _, at := range []time.Duration{9 * time.Minute, 9*time.Minute + time.Nanosecond, 30 * time.Minute, time.Hour} {
		if g, w := m.StateAt(at), ref.StateAt(at); g != w {
			t.Fatalf("StateAt(%v) = %v, want %v", at, g, w)
		}
	}
	if m.Err() != nil {
		t.Fatalf("queries at or after the floor latched %v", m.Err())
	}
	if len(m.timeline) >= len(ref.timeline) {
		t.Fatalf("nothing reused: %d intervals retained of %d", len(m.timeline), len(ref.timeline))
	}
}
