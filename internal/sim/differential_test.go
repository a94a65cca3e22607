package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file locks down the kernel's determinism contract by differential
// testing: the same randomized schedule/cancel/run scenario is replayed
// against the production kernel (sorted run and 4-ary heap, lazy
// cancellation, pooled events) and against a deliberately naive reference
// queue built on container/heap with eager removal — the structure the
// kernel replaced.
// The two must produce bit-identical fire traces: same callbacks, same
// order, same virtual timestamps. Any divergence means the fast path
// changed observable semantics, which would silently invalidate every
// seeded replay in the repository.

// kern abstracts the two kernels under a driver that makes identical
// decisions against both.
type kern interface {
	now() time.Duration
	schedule(d time.Duration, fn func()) any
	cancel(h any)
	run(until time.Duration)
}

// realKern adapts the production Simulator. When cov is set, every
// operation records what it left the queue's layout doing.
type realKern struct {
	s   *Simulator
	cov *layoutCoverage
}

func (r realKern) now() time.Duration { return r.s.Now() }
func (r realKern) schedule(d time.Duration, fn func()) any {
	ev := r.s.Schedule(d, fn)
	r.cov.note(r.s)
	return ev
}
func (r realKern) cancel(h any)            { r.s.Cancel(h.(Event)); r.cov.note(r.s) }
func (r realKern) run(until time.Duration) { _ = r.s.Run(until); r.cov.note(r.s) }

// layoutCoverage counts, by layout (0 sorted, 1 heap), what a program
// made the production queue do, so a test can require that it crossed
// between the layouts both ways with tombstones on both sides.
type layoutCoverage struct {
	into       [2]int // operations after which the queue had just switched into the layout
	tombstones [2]int // operations after which tombstones were queued in the layout
	revives    [2]int // Timer.Set calls that re-keyed a queued tombstone in the layout
	last       int
}

func layoutOf(s *Simulator) int {
	if s.queue.heap {
		return 1
	}
	return 0
}

// note samples s after one operation. A nil receiver records nothing.
func (c *layoutCoverage) note(s *Simulator) {
	if c == nil {
		return
	}
	l := layoutOf(s)
	if l != c.last {
		c.into[l]++
		c.last = l
	}
	if s.dead > 0 {
		c.tombstones[l]++
	}
}

// noteSet records a Timer.Set about to revive t's tombstone.
func (c *layoutCoverage) noteSet(s *Simulator, t *Timer) {
	if e := t.ev.e; e != nil && e.gen == t.ev.gen && e.pos >= 0 && e.dead {
		c.revives[layoutOf(s)]++
	}
}

// requireBothWays fails t unless the program switched into each layout
// and left tombstones queued in each.
func (c *layoutCoverage) requireBothWays(t *testing.T) {
	t.Helper()
	for l, name := range []string{"sorted", "heap"} {
		if c.into[l] == 0 || c.tombstones[l] == 0 {
			t.Errorf("program never switched into the %s layout or left a tombstone in it: %+v", name, *c)
		}
	}
}

// modelItem and modelHeap are the reference queue: container/heap over
// boxed items ordered by (at, seq), with eager cancellation via
// heap.Remove — semantically the pre-optimization kernel.
type modelItem struct {
	at  time.Duration
	seq uint64
	fn  func()
	idx int // heap index, -1 once popped or removed
}

type modelHeap []*modelItem

func (h modelHeap) Len() int { return len(h) }
func (h modelHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h modelHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *modelHeap) Push(x any) {
	it := x.(*modelItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *modelHeap) Pop() any {
	old := *h
	n := len(old) - 1
	it := old[n]
	old[n] = nil
	it.idx = -1
	*h = old[:n]
	return it
}

type modelKern struct {
	h   modelHeap
	t   time.Duration
	seq uint64
}

func (m *modelKern) now() time.Duration { return m.t }

func (m *modelKern) schedule(d time.Duration, fn func()) any {
	if d < 0 {
		d = 0
	}
	it := &modelItem{at: m.t + d, seq: m.seq, fn: fn}
	m.seq++
	heap.Push(&m.h, it)
	return it
}

func (m *modelKern) cancel(h any) {
	it := h.(*modelItem)
	if it.idx >= 0 {
		heap.Remove(&m.h, it.idx)
		it.idx = -1
	}
}

func (m *modelKern) run(until time.Duration) {
	for len(m.h) > 0 {
		next := m.h[0]
		if until > 0 && next.at > until {
			m.t = until
			return
		}
		heap.Pop(&m.h)
		m.t = next.at
		next.fn()
	}
	if until > 0 && m.t < until {
		m.t = until
	}
}

// drive replays one randomized scenario against k and returns the fire
// trace. All randomness comes from the seeded rng; because both kernels
// are driven by the same seed, the rng draw sequence — including draws
// made inside callbacks — matches exactly as long as the kernels fire
// callbacks in the same order, which is precisely the property under
// test. The coarse delay grid forces heavy same-instant collisions so
// FIFO-within-instant is exercised constantly; callbacks schedule
// children and cancel survivors so cancellation interleaves with
// scheduling at every depth.
func drive(k kern, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var live []any
	nextID := 0
	var add func(depth int)
	add = func(depth int) {
		id := nextID
		nextID++
		d := time.Duration(rng.Intn(5)) * time.Millisecond
		h := k.schedule(d, func() {
			trace = append(trace, fmt.Sprintf("%d@%d", id, k.now()))
			if depth < 4 && rng.Intn(2) == 0 {
				add(depth + 1)
			}
			if len(live) > 0 && rng.Intn(3) == 0 {
				// Cancelling a fired handle is a no-op in both kernels,
				// so drawing from the full history is fine — and it
				// exercises the stale-handle path.
				k.cancel(live[rng.Intn(len(live))])
			}
		})
		live = append(live, h)
	}
	for i := 0; i < 60; i++ {
		add(0)
	}
	for i := 0; i < 20; i++ {
		k.cancel(live[rng.Intn(len(live))])
	}
	k.run(40 * time.Millisecond)
	return trace
}

// driveWaves replays drive's kind of scenario in waves: each wave
// schedules a burst of 1..48 events, cancels a few survivors (callbacks
// cancel too) and runs a short slice of virtual time. The pending count
// climbs past sortedMax and drains below sortedReturn over and over, so
// the queue switches layout in both directions with tombstones queued on
// both sides of the switch.
func driveWaves(k kern, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var live []any
	nextID := 0
	add := func(d time.Duration) {
		id := nextID
		nextID++
		live = append(live, k.schedule(d, func() {
			trace = append(trace, fmt.Sprintf("%d@%d", id, k.now()))
			if rng.Intn(4) == 0 {
				k.cancel(live[rng.Intn(len(live))])
			}
		}))
	}
	for wave := 0; wave < 40; wave++ {
		for n := rng.Intn(48) + 1; n > 0; n-- {
			add(time.Duration(rng.Intn(20)) * time.Millisecond)
		}
		for n := rng.Intn(8); n > 0; n-- {
			k.cancel(live[rng.Intn(len(live))])
		}
		k.run(k.now() + time.Duration(rng.Intn(25)+1)*time.Millisecond)
	}
	k.run(0)
	return trace
}

// TestDifferentialDeterminism replays many seeded scenarios on the
// production kernel and the container/heap reference and requires
// bit-identical traces: drive's programs start past sortedMax and drain,
// driveWaves' cross between the queue's layouts in both directions.
func TestDifferentialDeterminism(t *testing.T) {
	var cov layoutCoverage
	for _, prog := range []struct {
		name  string
		drive func(kern, int64) []string
	}{{"drive", drive}, {"waves", driveWaves}} {
		for seed := int64(1); seed <= 50; seed++ {
			got := prog.drive(realKern{s: New(), cov: &cov}, seed)
			want := prog.drive(&modelKern{}, seed)
			if len(got) == 0 {
				t.Fatalf("%s seed %d: empty trace (scenario fired nothing)", prog.name, seed)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: trace length %d (kernel) vs %d (reference)", prog.name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: traces diverge at index %d: kernel %q, reference %q",
						prog.name, seed, i, got[i], want[i])
				}
			}
		}
	}
	t.Logf("layout coverage: %+v", cov)
	cov.requireBothWays(t)
}

// TestDifferentialDeterminismPooled repeats the comparison on a recycled
// simulator from the pool: reuse must not perturb the trace. The pooled
// run reuses event structs from the free list with bumped generations,
// so any ABA confusion between runs would surface here.
func TestDifferentialDeterminismPooled(t *testing.T) {
	s := New()
	for seed := int64(1); seed <= 20; seed++ {
		s.Reset()
		got := drive(realKern{s: s}, seed)
		want := drive(&modelKern{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace length %d (pooled kernel) vs %d (reference)", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at index %d: pooled kernel %q, reference %q",
					seed, i, got[i], want[i])
			}
		}
	}
}
