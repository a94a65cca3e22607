package sim

import (
	"container/heap"
	"testing"
	"time"
)

// step pops and fires the reference's earliest event, as Simulator.Step.
func (m *modelKern) step() bool {
	if len(m.h) == 0 {
		return false
	}
	next := heap.Pop(&m.h).(*modelItem)
	m.t = next.at
	next.fn()
	return true
}

// fuzzDelay maps one program byte to a delay: a coarse grid that makes
// same-instant ties common, and far-future deadlines that sink.
func fuzzDelay(b byte) time.Duration {
	if b >= 240 {
		return time.Hour
	}
	return time.Duration(b%16) * time.Millisecond
}

// FuzzKernelOps runs a byte-driven program of Schedule, Cancel,
// Timer.Set, Timer.Stop, Step and Advance against the production kernel
// and the container/heap reference (timers there are
// cancel-then-schedule; Advance is schedule-then-step, refused iff a
// live event is due at or before its time), and requires the same
// firings at the same times in the same order, the same pending counts,
// fired counts and timer states after every operation, and a queue that
// passes checkHeap throughout. Bursts, step runs and mass
// cancels move the queue across sortedMax in both directions and past
// the compaction floor.
func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{0, 3, 3, 5, 4, 5, 3, 250, 5, 0, 2, 0, 5, 0})
	// Past sortedMax and back down, timers re-armed and revived on both sides.
	f.Add([]byte{1, 39, 3, 1, 4, 1, 3, 2, 4, 2, 3, 250, 6, 20, 3, 1, 6, 39, 3, 2, 4, 3, 6, 39, 3, 3})
	// Three bursts, mass-cancelled: a compaction.
	f.Add([]byte{1, 39, 1, 79, 1, 119, 3, 4, 7, 0, 4, 4, 3, 4, 6, 39, 6, 39, 0, 1})
	// Advances refused by a tie, by an earlier event and over a
	// tombstoned front, and accepted past them.
	f.Add([]byte{0, 5, 8, 5, 8, 9, 2, 0, 8, 3, 0, 0, 8, 0, 5, 0, 8, 2, 3, 250, 8, 15, 1, 45, 8, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		type fired struct {
			id int
			at time.Duration
		}
		real, ref := New(), &modelKern{}
		var gotReal, gotRef []fired
		const timers = 8
		rt := make([]*Timer, timers)
		ft := make([]*modelItem, timers)
		ftFire := make([]func(), timers)
		for i := range rt {
			id := -1 - i
			rt[i] = NewTimer(real, func() { gotReal = append(gotReal, fired{id, real.Now()}) })
			ftFire[i] = func() { gotRef = append(gotRef, fired{id, ref.t}) }
		}
		var evReal []Event
		var evRef []*modelItem
		schedule := func(d time.Duration) {
			id := len(evReal)
			evReal = append(evReal, real.Schedule(d, func() { gotReal = append(gotReal, fired{id, real.Now()}) }))
			evRef = append(evRef, ref.schedule(d, func() { gotRef = append(gotRef, fired{id, ref.t}) }).(*modelItem))
		}
		cancel := func(j int) {
			real.Cancel(evReal[j])
			ref.cancel(evRef[j])
		}
		var refFired uint64
		step := func() {
			a, err := real.Step()
			b := ref.step()
			if a != b || err != nil {
				t.Fatalf("Step = (%v, %v), reference %v", a, err, b)
			}
			if b {
				refFired++
			}
		}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%9, prog[pc+1]
			i := int(arg) % timers
			switch op {
			case 0:
				schedule(fuzzDelay(arg))
			case 1: // burst
				for j := 0; j <= int(arg)%40; j++ {
					schedule(fuzzDelay(arg + byte(j*37)))
				}
			case 2:
				if len(evReal) > 0 {
					cancel(int(arg) % len(evReal))
				}
			case 3:
				rt[i].Set(fuzzDelay(arg))
				if ft[i] != nil {
					ref.cancel(ft[i])
				}
				ft[i] = ref.schedule(fuzzDelay(arg), ftFire[i]).(*modelItem)
			case 4:
				rt[i].Stop()
				if ft[i] != nil {
					ref.cancel(ft[i])
				}
			case 5:
				step()
			case 6: // step run
				for j := 0; j <= int(arg)%40; j++ {
					step()
				}
			case 7: // mass cancel: every handle from one point on
				for j := int(arg) % (len(evReal) + 1); j < len(evReal); j++ {
					cancel(j)
				}
			case 8:
				at := real.Now() + fuzzDelay(arg)
				want := len(ref.h) == 0 || ref.h[0].at > at
				if got := real.Advance(at); got != want {
					t.Fatalf("op %d: Advance(%v) = %v, reference %v", pc/2, at, got, want)
				}
				if want {
					ref.schedule(at-ref.t, func() {})
					ref.step()
					refFired++
				}
			}
			if real.Pending() != len(ref.h) || real.Now() != ref.t || real.Fired() != refFired {
				t.Fatalf("op %d: pending %d at %v after %d fired, reference %d at %v after %d",
					pc/2, real.Pending(), real.Now(), real.Fired(), len(ref.h), ref.t, refFired)
			}
			for j := range rt {
				if want := ft[j] != nil && ft[j].idx >= 0; rt[j].Pending() != want {
					t.Fatalf("op %d: timer %d pending=%v, reference %v", pc/2, j, rt[j].Pending(), want)
				}
			}
			if err := real.checkHeap(); err != nil {
				t.Fatalf("op %d: %v", pc/2, err)
			}
		}
		if err := real.RunAll(); err != nil {
			t.Fatal(err)
		}
		ref.run(0)
		if len(gotReal) != len(gotRef) {
			t.Fatalf("%d firings, reference %d", len(gotReal), len(gotRef))
		}
		for k := range gotReal {
			if gotReal[k] != gotRef[k] {
				t.Fatalf("firing %d is %+v, reference %+v", k, gotReal[k], gotRef[k])
			}
		}
	})
}
