package cell

import (
	"wtcp/internal/bs"
	"wtcp/internal/oracle"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
)

// sampler is the cell-scale conformance spot-check: full-population
// checking is unaffordable at 50k flows, so OracleSample flows — spread
// evenly across the ID space — get the repository's streaming Tahoe/ARQ
// oracle attached. Each sampled flow has its own trace.Source with a
// checker armed, fed exactly as a single-connection run feeds its
// source: sender transitions through the state hook (engine.Observe),
// base-station ARQ events through the base-station hooks. A violation
// fails the kernel (it surfaces from the run loop as an error).
type sampler struct {
	e      *engine
	slotOf []int32 // flow -> slot in the two slices below, -1 unsampled
	// onState and arq are each sampled flow's source, as the hooks that
	// feed it.
	onState []func(*trace.Event)
	arq     []bs.Hooks
	// ev is the scratch event a sampled flow's transition is written to.
	ev trace.Event
}

// newSampler attaches checkers to k flows (clamped to the population).
func newSampler(e *engine, k int) *sampler {
	if k > e.F {
		k = e.F
	}
	sp := &sampler{
		e:       e,
		slotOf:  make([]int32, e.F),
		onState: make([]func(*trace.Event), k),
		arq:     make([]bs.Hooks, k),
	}
	for f := range sp.slotOf {
		sp.slotOf[f] = -1
	}
	cfg := oracle.Config{
		Variant: e.tcp.Variant,
		MSS:     e.tcp.MSS,
		Window:  e.tcp.Window,
		RTmax:   e.cfg.RTmax,
	}
	step := e.F / k
	for i := 0; i < k; i++ {
		sp.slotOf[i*step] = int32(i)
		src := trace.NewSource(e.tcp.MSS, e.s)
		src.Check("cell-oracle", oracle.New(cfg))
		sp.onState[i] = src.OnState
		sp.arq[i] = src.BSHooks()
	}
	return sp
}

// state feeds one of flow f's sender transitions, written as an event
// with the post-transition state, to its source, if f is sampled.
func (sp *sampler) state(f int32, t tcp.Transition) {
	if slot := sp.slotOf[f]; slot >= 0 {
		e := sp.e
		e.rows[f].Snapshot(t, e.TimerDeadline(), &sp.ev)
		sp.onState[slot](&sp.ev)
	}
}

// ---- ARQ events (base-station side of the sampled flow's stream) ----

func (sp *sampler) arqAttempt(f int32, attempt int) {
	if slot := sp.slotOf[f]; slot >= 0 {
		u := sp.e.unit[f]
		sp.arq[slot].OnARQAttempt(u, u, attempt)
	}
}

func (sp *sampler) arqFailure(f int32, attempt int) {
	if slot := sp.slotOf[f]; slot >= 0 {
		u := sp.e.unit[f]
		sp.arq[slot].OnARQFailure(u, u, attempt)
	}
}

func (sp *sampler) arqAck(f int32) {
	if slot := sp.slotOf[f]; slot >= 0 {
		u := sp.e.unit[f]
		sp.arq[slot].OnARQAck(u, u)
	}
}

func (sp *sampler) arqDiscard(f int32) {
	if slot := sp.slotOf[f]; slot >= 0 {
		sp.arq[slot].OnARQDiscard(sp.e.unit[f])
	}
}
