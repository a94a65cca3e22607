package cell

import (
	"fmt"
	"testing"
	"time"

	"wtcp/internal/sim"
)

// Differential pins for the two scans the engine no longer repeats per
// micro-event: the wheel's cached minimum against a from-scratch pass over
// every timer, and the non-empty bitmap walk against the linear queue scan
// it replaced.

// wheelTrueMin is the reference: the minimum over every armed entry and
// how many entries carry it, straight off the deadline slab.
func wheelTrueMin(w *wheel) (min int64, n int) {
	min = -1
	for _, d := range w.deadline {
		switch {
		case d < 0:
		case min < 0 || d < min:
			min, n = d, 1
		case d == min:
			n++
		}
	}
	return min, n
}

// TestWheelMinMatchesScan drives a wheel the way the engine does — timers
// armed at or after a clock that only advances to the next deadline, every
// entry due then popped — with random arms, re-arms and cancels in
// between, many of them sharing one deadline or one bucket. After every
// operation nextAt must equal the from-scratch minimum, and the cache
// invariant (a non-zero minCount is the exact population at the exact
// minimum) must hold.
func TestWheelMinMatchesScan(t *testing.T) {
	const nidx = 300
	for seed := int64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		// A small wheel makes laps and bucket sharing frequent; the
		// engine's geometry gets the same treatment on even seeds.
		w := newWheel(int64(time.Millisecond), 64, nidx)
		if seed%2 == 0 {
			w = newWheel(int64(wheelTick), wheelBuckets, nidx)
		}
		span := w.span()
		now := int64(0)
		check := func(op string) {
			t.Helper()
			want, wantN := wheelTrueMin(w)
			if got := w.nextAt(now); got != want {
				t.Fatalf("seed %d after %s at now=%d: nextAt %d, scan %d", seed, op, now, got, want)
			}
			if w.count > 0 && (w.min != want || w.minCount != wantN) {
				t.Fatalf("seed %d after %s: cache (%d x%d), scan (%d x%d)", seed, op, w.min, w.minCount, want, wantN)
			}
		}
		shared := now + w.tickNs/3 // a deadline many entries will carry
		for step := 0; step < 40000; step++ {
			idx := int32(rng.Intn(nidx))
			switch r := rng.Intn(10); {
			case r < 5:
				var at int64
				switch rng.Intn(5) {
				case 0:
					at = now // due immediately
				case 1:
					at = shared
				case 2:
					at = now + int64(rng.Intn(int(w.tickNs))) // same bucket as now, or the next
				case 3:
					at = now + int64(rng.Intn(int(span-w.tickNs))) // anywhere in the lap
				default:
					at = shared + int64(rng.Intn(3)) // same bucket as the shared deadline
				}
				if at < now {
					at = now
				}
				w.arm(idx, at, now)
				check(fmt.Sprintf("arm(%d, %d)", idx, at))
			case r < 7:
				w.cancel(idx)
				check(fmt.Sprintf("cancel(%d)", idx))
			default:
				// Advance to the next deadline and fire everything due,
				// in arm order.
				at := w.nextAt(now)
				if at < 0 {
					continue
				}
				now = at
				for {
					e := w.popDue(at)
					if e < 0 {
						break
					}
					if w.deadline[e] != -1 {
						t.Fatalf("seed %d: popDue(%d) left entry %d armed", seed, at, e)
					}
					check(fmt.Sprintf("popDue(%d) -> %d", at, e))
					if rng.Intn(4) == 0 {
						// A timeout re-arms its own timer (onTimeout).
						w.arm(e, now+int64(rng.Intn(int(span/2))), now)
						check("re-arm from fire")
					}
				}
				if next := w.nextAt(now); next >= 0 && next <= at {
					t.Fatalf("seed %d: deadline %d still pending after firing %d", seed, next, at)
				}
				if now >= shared {
					shared = now + w.tickNs*int64(1+rng.Intn(5)) + w.tickNs/3
				}
			}
		}
	}
}

// linearNextNonEmpty is the scan nextNonEmpty replaced, kept as the
// reference: every local flow's qCount in ring order from the pointer.
func linearNextNonEmpty(e *engine, b int32, csdp bool) (int32, bool) {
	n := e.nLocal[b]
	for i := int32(1); i <= n; i++ {
		l := (e.rr[b] + i) % n
		f := l*int32(e.B) + b
		if e.qCount[f] == 0 {
			continue
		}
		if csdp && !e.predictGood(f) {
			e.skippedBad[b]++
			continue
		}
		e.rr[b] = l
		return f, true
	}
	return 0, false
}

// TestNextNonEmptyMatchesLinearScan runs two engines built from one
// configuration through the same random pushes, pops and clock advances;
// one picks with the bitmap walk, the other with the linear scan. Same
// pick, same pointer and same skippedBad after every call, the bitmap and
// count always agreeing with the queues — and, at the end, the same next
// predictor draw, so the walk consulted the predictor exactly as often
// and in the same order. Shared channels under a predictor that draws
// nothing take the one-verdict path, which must be indistinguishable
// from the scan too.
func TestNextNonEmptyMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		flows, stations int
		policy          Policy
		shared          bool
		accuracy        float64
	}{
		{1, 1, RoundRobin, false, 0.8},
		{64, 1, CSDP, false, 0.8},
		{200, 1, RoundRobin, false, 0.8},
		{200, 1, CSDP, false, 0.8},
		{200, 3, RoundRobin, false, 0.8}, // 67, 67, 66 local flows
		{200, 3, CSDP, false, 0.8},
		{1000, 3, CSDP, false, 0.8},
		// One channel per station and a predictor that draws nothing:
		// one verdict answers for every queue. Then each condition
		// alone, where it must not.
		{200, 1, CSDP, true, 1},
		{1000, 3, CSDP, true, 1},
		{200, 3, CSDP, true, 0.8},
		{200, 3, CSDP, false, 1},
	} {
		cfg := smallConfig(tc.flows)
		cfg.BaseStations = tc.stations
		cfg.Policy = tc.policy
		cfg.SharedChannel = tc.shared
		cfg.PredictorAccuracy = tc.accuracy
		cfg.Channel.MeanGood = 400 * time.Millisecond // states flip during the test
		cfg.Channel.MeanBad = 300 * time.Millisecond
		got, ref := benchEngine(t, cfg), benchEngine(t, cfg)
		csdp := tc.policy == CSDP
		ops := sim.NewRNG(int64(tc.flows*10 + tc.stations))
		push := func(e *engine, f int32) {
			if s := e.arena.alloc(f, 0, int32(e.mss)); !e.qPush(f, s) {
				e.arena.decref(s)
			}
		}
		pop := func(e *engine, f int32) {
			if e.qCount[f] > 0 {
				e.arena.decref(e.qPop(f))
			}
		}
		picks := 0
		for step := 0; step < 30000; step++ {
			f := int32(ops.Intn(tc.flows))
			switch r := ops.Intn(20); {
			case r < 5:
				push(got, f)
				push(ref, f)
			case r < 8:
				pop(got, f)
				pop(ref, f)
			case r == 8:
				// Sparse and dense phases: empty most queues at once.
				for i := int32(0); i < int32(tc.flows); i++ {
					if ops.Intn(8) != 0 {
						pop(got, i)
						pop(ref, i)
					}
				}
			case r == 9:
				d := time.Duration(ops.Intn(int(200 * time.Millisecond)))
				for _, e := range []*engine{got, ref} {
					e.s.Schedule(d, func() {})
					if _, err := e.s.Step(); err != nil {
						t.Fatal(err)
					}
				}
			default:
				b := int32(ops.Intn(tc.stations))
				gf, gok := got.nextNonEmpty(b, csdp)
				rf, rok := linearNextNonEmpty(ref, b, csdp)
				if gf != rf || gok != rok {
					t.Fatalf("%+v step %d station %d: bitmap picked (%d, %v), linear scan (%d, %v)", tc, step, b, gf, gok, rf, rok)
				}
				if got.rr[b] != ref.rr[b] || got.skippedBad[b] != ref.skippedBad[b] {
					t.Fatalf("%+v step %d station %d: pointer %d skipped %d, linear scan %d / %d",
						tc, step, b, got.rr[b], got.skippedBad[b], ref.rr[b], ref.skippedBad[b])
				}
				if gok {
					picks++
					pop(got, gf) // the pick is served
					pop(ref, rf)
				}
			}
			if step%500 == 0 {
				checkNonEmptyBitmap(t, got)
			}
		}
		checkNonEmptyBitmap(t, got)
		if picks == 0 {
			t.Fatalf("%+v: no pick ever succeeded", tc)
		}
		if csdp && got.skippedBad[0] == 0 {
			t.Fatalf("%+v: the predictor never skipped a flow", tc)
		}
		if g, r := got.pred.Int63(), ref.pred.Int63(); g != r {
			t.Fatalf("%+v: predictor streams diverged (next draw %d, linear scan %d)", tc, g, r)
		}
	}
}

// checkNonEmptyBitmap asserts the bitmap and per-station counts mirror
// qCount exactly.
func checkNonEmptyBitmap(t *testing.T, e *engine) {
	t.Helper()
	queued := make([]int32, e.B)
	for f := 0; f < e.F; f++ {
		b, l := f%e.B, f/e.B
		bit := e.nonEmpty[b*e.neWords+l>>6]>>uint(l&63)&1 == 1
		if bit != (e.qCount[f] > 0) {
			t.Fatalf("flow %d: bit %v with %d queued", f, bit, e.qCount[f])
		}
		if bit {
			queued[b]++
		}
	}
	for b := range queued {
		if queued[b] != e.queued[b] || e.anyQueued(int32(b)) != (queued[b] > 0) {
			t.Fatalf("station %d: count %d, %d queues non-empty", b, e.queued[b], queued[b])
		}
	}
}
