package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refTimer is Timer as it was before in-place re-keying: Set is Cancel
// followed by Schedule, Stop is Cancel. It is the reference the real
// Timer must be indistinguishable from.
type refTimer struct {
	s  *Simulator
	ev Event
	fn func()
}

func (t *refTimer) Set(d time.Duration) {
	t.s.Cancel(t.ev)
	t.ev = t.s.Schedule(d, t.fn)
}
func (t *refTimer) Stop() { t.s.Cancel(t.ev); t.ev = Event{} }

// TestTimerRearmMatchesCancelSchedule drives a random program of Set /
// Stop / plain Schedule / Step over a population of timers through the
// real Timer and through the cancel-then-schedule reference, with many
// same-instant deadlines so FIFO tie-breaking is exercised. The two
// kernels must fire the same things at the same times in the same order,
// whatever happens to the queue entries underneath (re-keyed up, re-keyed
// down, tombstone revived, tombstone swept by compaction). Far-future
// tombstones push the queue past sortedMax into the heap layout, and a
// drain every thousand operations brings it back to the sorted one, so
// every one of those happens in both layouts — compaction aside, which
// only a heap is big enough for.
func TestTimerRearmMatchesCancelSchedule(t *testing.T) {
	var cov layoutCoverage
	for seed := int64(1); seed <= 20; seed++ {
		real, ref := New(), New()
		var gotReal, gotRef []string
		const timers = 24
		rt := make([]*Timer, timers)
		ft := make([]*refTimer, timers)
		for i := range rt {
			i := i
			rt[i] = NewTimer(real, func() { gotReal = append(gotReal, fmt.Sprintf("t%d@%v", i, real.Now())) })
			ft[i] = &refTimer{s: ref, fn: func() { gotRef = append(gotRef, fmt.Sprintf("t%d@%v", i, ref.Now())) }}
		}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 4000; op++ {
			i := rng.Intn(timers)
			switch k := rng.Intn(10); {
			case k < 5:
				// Coarse delays collide often; a few are far in the future
				// (the reassembly-timer shape) and sink to the leaves.
				d := time.Duration(rng.Intn(8)) * time.Millisecond
				if rng.Intn(6) == 0 {
					d = time.Minute
				}
				cov.noteSet(real, rt[i])
				rt[i].Set(d)
				ft[i].Set(d)
			case k < 6:
				rt[i].Stop()
				ft[i].Stop()
			case k < 7:
				d := time.Duration(rng.Intn(8)) * time.Millisecond
				tag := fmt.Sprintf("e%d", op)
				real.Schedule(d, func() { gotReal = append(gotReal, fmt.Sprintf("%s@%v", tag, real.Now())) })
				ref.Schedule(d, func() { gotRef = append(gotRef, fmt.Sprintf("%s@%v", tag, ref.Now())) })
			case k < 8:
				// Plain far-future tombstones, enough of them that the
				// compaction sweep runs and takes stopped timers' entries
				// with it (their handles must then read as stale).
				real.Cancel(real.Schedule(time.Hour, func() {}))
				ref.Cancel(ref.Schedule(time.Hour, func() {}))
			default:
				a, errA := real.Step()
				b, errB := ref.Step()
				if a != b || errA != nil || errB != nil {
					t.Fatalf("seed %d op %d: Step = (%v,%v) vs reference (%v,%v)", seed, op, a, errA, b, errB)
				}
			}
			if op%1000 == 999 {
				if err := real.RunAll(); err != nil {
					t.Fatal(err)
				}
				if err := ref.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
			cov.note(real)
			if real.Pending() != ref.Pending() {
				t.Fatalf("seed %d op %d: Pending %d vs reference %d", seed, op, real.Pending(), ref.Pending())
			}
			for j := range rt {
				if rt[j].Pending() != ft[j].ev.Pending() {
					t.Fatalf("seed %d op %d: timer %d pending=%v, reference %v", seed, op, j, rt[j].Pending(), ft[j].ev.Pending())
				}
			}
			if err := real.checkHeap(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if err := real.RunAll(); err != nil {
			t.Fatal(err)
		}
		if err := ref.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(gotReal) != len(gotRef) {
			t.Fatalf("seed %d: %d firings vs reference %d", seed, len(gotReal), len(gotRef))
		}
		for k := range gotReal {
			if gotReal[k] != gotRef[k] {
				t.Fatalf("seed %d: firing %d is %s, reference fired %s", seed, k, gotReal[k], gotRef[k])
			}
		}
		if real.Fired() != ref.Fired() {
			t.Errorf("seed %d: fired %d events, reference %d", seed, real.Fired(), ref.Fired())
		}
		if real.Stats().Compactions == 0 {
			t.Errorf("seed %d: the program never forced a compaction", seed)
		}
	}
	t.Logf("layout coverage: %+v", cov)
	cov.requireBothWays(t)
	if cov.revives[0] == 0 || cov.revives[1] == 0 {
		t.Errorf("no tombstone revived in one of the layouts: %+v", cov)
	}
}

// TestTimerLeavesNoTombstones pins the heap-occupancy contract: however
// often a timer is reset or stopped, it holds at most one heap slot.
func TestTimerLeavesNoTombstones(t *testing.T) {
	s := New()
	tm := NewTimer(s, func() {})
	for i := 0; i < 1000; i++ {
		tm.Set(time.Duration(1+i%7) * time.Second)
		if i%3 == 0 {
			tm.Stop()
			if tm.Pending() || tm.Deadline() >= 0 {
				t.Fatal("stopped timer reports pending")
			}
		}
	}
	tm.Set(time.Second)
	if n := s.queue.len(); n != 1 {
		t.Fatalf("heap holds %d slots for one timer", n)
	}
	st := s.Stats()
	if st.HeapHighWater != 1 || st.Compactions != 0 {
		t.Errorf("stats = %+v, want high-water 1 and no compaction", st)
	}
	if st.Cancelled != 334 {
		t.Errorf("stats = %+v, want the 334 Stops counted as cancels", st)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 1 || s.Stats().Fired != 1 {
		t.Errorf("fired %d events, want exactly the last deadline", s.Fired())
	}
}

func TestStatsCountCancelsAndCompactions(t *testing.T) {
	s := New()
	evs := make([]Event, 4*compactMin)
	for i := range evs {
		evs[i] = s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	for i, ev := range evs {
		if i%4 != 0 {
			s.Cancel(ev)
		}
	}
	s.Cancel(evs[1]) // already cancelled: not counted again
	st := s.Stats()
	if st.Cancelled != uint64(3*compactMin) {
		t.Errorf("Cancelled = %d, want %d", st.Cancelled, 3*compactMin)
	}
	if st.Compactions == 0 {
		t.Error("no compaction recorded with three quarters of the heap dead")
	}
	if st.HeapHighWater != 4*compactMin {
		t.Errorf("HeapHighWater = %d, want %d", st.HeapHighWater, 4*compactMin)
	}
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Errorf("Reset kept counters: %+v", s.Stats())
	}
}
