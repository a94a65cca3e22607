package errmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// searchRef answers channel queries the way Markov did before it kept a
// cursor or a one-interval shortcut: a binary search from scratch and the
// integrating loop, every time. It reads a twin Markov's timeline (same
// seed, same Forget calls, so the same window) and never calls the twin's
// own query methods.
type searchRef struct {
	m         *Markov
	forgotten bool // a query has landed below the window
}

func (r *searchRef) locate(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	r.m.extendTo(t)
	tl := r.m.timeline
	if t < tl[0].start {
		r.forgotten = true
		return -1
	}
	lo, hi := 0, len(tl)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tl[mid].start <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (r *searchRef) stateAt(t time.Duration) State {
	i := r.locate(t)
	if i < 0 {
		return 0
	}
	return r.m.timeline[i].state
}

func (r *searchRef) expectedBitErrors(start, end time.Duration, bits int64) float64 {
	if bits <= 0 {
		return 0
	}
	if start < 0 {
		start = 0
	}
	r.m.extendTo(end)
	first := r.locate(start)
	if first < 0 {
		return math.NaN()
	}
	tl := r.m.timeline
	if end <= start {
		return r.m.berOf(tl[first].state) * float64(bits)
	}
	total := float64(end - start)
	mean := 0.0
	for i := first; i < len(tl); i++ {
		ivEnd := r.m.horizon
		if i+1 < len(tl) {
			ivEnd = tl[i+1].start
		}
		lo, hi := maxDur(start, tl[i].start), minDur(end, ivEnd)
		if hi <= lo {
			if tl[i].start >= end {
				break
			}
			continue
		}
		mean += r.m.berOf(tl[i].state) * float64(bits) * (float64(hi-lo) / total)
	}
	return mean
}

// TestCursorEqualsSearch is the differential for the cursor and the
// one-interval shortcut: a Markov and a cursor-free reference on the same
// seed answer the same stream of queries — forward a transmission at a
// time, repeated, backward, jumping several holding times, and placed
// exactly on interval edges (t on a start, end on the next start, either a
// nanosecond over, end at or before start) — and every answer must match bit for bit, with the
// window sliding underneath (Forget) and without. Backward queries
// sometimes reach below the window; the fault must latch on the same
// query the reference loses its interval on, and not before.
func TestCursorEqualsSearch(t *testing.T) {
	cfgs := []struct {
		Config
		tx time.Duration // the scale of one query
	}{
		{PaperLAN(500 * time.Millisecond), 200 * time.Microsecond},
		{PaperWAN(4 * time.Second), 200 * time.Microsecond},
		{Config{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: time.Second, MeanBad: 0, Start: Good}, 200 * time.Microsecond},
		{Config{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: 300 * time.Millisecond, MeanBad: 200 * time.Millisecond, Deterministic: true, Start: Bad}, 200 * time.Microsecond},
		// Holding times shorter than a query: most queries straddle.
		{Config{GoodBER: 1e-5, BadBER: 1e-3, MeanGood: 2 * time.Millisecond, MeanBad: time.Millisecond, Start: Good}, 5 * time.Millisecond},
	}
	for ci, c := range cfgs {
		cfg, tx := c.Config, c.tx
		for _, forget := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				m := mustMarkov(t, cfg, seed)
				ref := &searchRef{m: mustMarkov(t, cfg, seed)}
				pick := rand.New(rand.NewSource(seed*104729 + int64(ci)))
				slides, faultAt := 0, -1
				now, qs, qe := time.Duration(0), time.Duration(0), time.Duration(0)
				for i := 0; i < 12000; i++ {
					switch k := pick.Intn(16); {
					case k < 8: // forward, one transmission on
						now += time.Duration(pick.ExpFloat64() * (1.5 * float64(tx)))
						qs, qe = now, now+time.Duration(pick.Intn(int(tx)))
					case k < 10: // the same query again
					case k < 12: // backward, at times below the window
						back := time.Duration(pick.ExpFloat64() * float64(cfg.MeanGood/80))
						if k == 11 {
							back = time.Duration(pick.ExpFloat64() * (5 * float64(cfg.MeanGood)))
						}
						qs = max(now-back, 0)
						qe = qs + time.Duration(pick.Intn(int(25*tx)))
					case k < 14: // on the edges of a retained interval
						tl := ref.m.timeline
						j := pick.Intn(len(tl))
						qs, qe = tl[j].start, ref.m.horizon
						if j+1 < len(tl) {
							qe = tl[j+1].start
						}
						switch pick.Intn(6) {
						case 0:
							qs += time.Duration(pick.Int63n(int64(qe - qs))) // only end on an edge
						case 1:
							qe = qs // instantaneous, on a start
						case 2:
							qe = qs - 1 // end before start
						case 3:
							qe++ // one nanosecond into the next interval
						case 4:
							qs-- // one nanosecond of the previous one
						}
					case k < 15: // straddling: a query longer than most holding times
						now += time.Duration(pick.ExpFloat64() * float64(tx))
						qs, qe = now, now+time.Duration(pick.ExpFloat64()*float64(cfg.MeanGood))
					default: // an idle stretch of several holding times
						now += time.Duration(pick.ExpFloat64() * (5 * float64(cfg.MeanGood)))
						qs, qe = now, now+tx
					}
					if forget {
						floor := max(now-cfg.MeanGood/40, 0)
						m.Forget(floor)
						ref.m.Forget(floor)
					}
					before := ref.m.timeline[0].start

					g, w := m.ExpectedBitErrors(qs, qe, 12288), ref.expectedBitErrors(qs, qe, 12288)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("cfg %d forget=%v seed %d query %d: ExpectedBitErrors(%v, %v) = %v, search gives %v", ci, forget, seed, i, qs, qe, g, w)
					}
					if g, w := m.StateAt(qe), ref.stateAt(qe); g != w {
						t.Fatalf("cfg %d forget=%v seed %d query %d: StateAt(%v) = %v, search gives %v", ci, forget, seed, i, qe, g, w)
					}
					if g, w := m.StateAt(qs), ref.stateAt(qs); g != w {
						t.Fatalf("cfg %d forget=%v seed %d query %d: StateAt(%v) = %v, search gives %v", ci, forget, seed, i, qs, g, w)
					}
					if (m.Err() != nil) != ref.forgotten {
						t.Fatalf("cfg %d forget=%v seed %d query %d: latched %v, search lost its interval: %v", ci, forget, seed, i, m.Err(), ref.forgotten)
					}
					if ref.forgotten && faultAt < 0 {
						faultAt = i
						if !errors.Is(m.Err(), ErrForgotten) {
							t.Fatalf("latched %v, want ErrForgotten", m.Err())
						}
					}
					if ref.m.timeline[0].start != before {
						slides++
					}
					if len(m.timeline) != len(ref.m.timeline) || m.timeline[0] != ref.m.timeline[0] {
						t.Fatalf("cfg %d forget=%v seed %d query %d: the two windows differ", ci, forget, seed, i)
					}
				}
				// The stream must have exercised what it claims to.
				if forget && cfg.MeanBad > 0 && (slides < 10 || faultAt < 0) {
					t.Errorf("cfg %d seed %d: %d slides, first fault at query %d — window never moved under the cursor", ci, seed, slides, faultAt)
				}
				if !forget && (slides != 0 || faultAt >= 0) {
					t.Errorf("cfg %d seed %d: unbounded timeline slid %d times, fault at %d", ci, seed, slides, faultAt)
				}
			}
		}
	}
}
