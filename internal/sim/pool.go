package sim

import "sync"

// This file gives replication sweeps a pooled setup path: a finished
// simulator can be Reset (keeping its heap slab and event free list warm)
// and reused for the next replication instead of handing the whole event
// arena back to the garbage collector. The process-wide Acquire/Release
// pool is safe for concurrent use — each worker in an experiment sweep
// gets its own simulator; the kernel itself stays single-threaded.

var simPool = sync.Pool{New: func() any { return New() }}

// Acquire returns a ready-to-use simulator from the process-wide pool.
// The simulator is indistinguishable from New()'s — clock at zero, no
// events, no checks — except that its internal event storage may already
// be warm, which never affects simulation results.
func Acquire() *Simulator {
	return simPool.Get().(*Simulator)
}

// Release resets s and returns it to the process-wide pool. The caller
// must not touch s (or any Timer/Event bound to it) afterwards. Never
// release a simulator whose run panicked — its state is unknown; drop it
// and let the garbage collector take it.
func Release(s *Simulator) {
	s.Reset()
	simPool.Put(s)
}

// Reset returns the simulator to its initial state — clock at zero, empty
// queue, no checks, no failure, no bound context — while keeping the heap
// slab and recycled-event free list, so the next run starts with a warm
// allocator. A reset simulator behaves bit-identically to a fresh one:
// sequence numbers restart at zero and no retained storage influences
// event order.
func (s *Simulator) Reset() {
	for _, e := range s.queue.a {
		s.recycle(e)
	}
	clear(s.queue.a)
	s.queue = eventQueue{a: s.queue.a[:0]}
	s.dead = 0
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stats = Stats{}
	s.stopped = false
	s.checks = nil
	s.checksOn = false
	s.failure = nil
	s.ctx = nil
	s.budget = nil
}
