package cell

import (
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/oracle"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
)

// sampler is the cell-scale conformance spot-check: full-population
// checking is unaffordable at 50k flows, so OracleSample flows — spread
// evenly across the ID space — get the repository's streaming Tahoe/ARQ
// oracle attached. Each sampled flow has its own trace.Source with a
// checker subscribed, fed exactly as a single-connection run feeds its
// source: sender transitions through the state hook (engine.Observe),
// base-station ARQ events through the base-station hooks. A violation
// fails the kernel (it surfaces from the run loop as an error).
type sampler struct {
	e      *engine
	slotOf []int32 // flow -> slot in the two slices below, -1 unsampled
	// onState and arq are each sampled flow's source, as the hooks that
	// feed it.
	onState []func(tcp.StateSnapshot)
	arq     []bs.Hooks
}

// newSampler attaches checkers to k flows (clamped to the population).
func newSampler(e *engine, k int) *sampler {
	if k > e.F {
		k = e.F
	}
	sp := &sampler{
		e:       e,
		slotOf:  make([]int32, e.F),
		onState: make([]func(tcp.StateSnapshot), k),
		arq:     make([]bs.Hooks, k),
	}
	for f := range sp.slotOf {
		sp.slotOf[f] = -1
	}
	cfg := oracle.Config{
		Variant: e.tcp.Variant,
		MSS:     e.tcp.MSS,
		Window:  e.tcp.Window,
		MaxRTO:  e.tcp.MaxRTO,
		RTmax:   e.cfg.RTmax,
	}
	now := func() time.Duration { return e.s.Now() }
	step := e.F / k
	for i := 0; i < k; i++ {
		sp.slotOf[i*step] = int32(i)
		checker := oracle.New(cfg)
		src := trace.NewSource(e.tcp.MSS, now)
		src.Subscribe(func(idx int, ev *trace.Event) {
			if v := checker.Observe(idx, ev); v != nil {
				e.s.Fail("cell-oracle", v)
			}
		})
		sp.onState[i] = src.Hooks().OnState
		sp.arq[i] = src.BSHooks()
	}
	return sp
}

// state feeds one of flow f's sender transitions, completed into a full
// snapshot, to its source, if f is sampled.
func (sp *sampler) state(f int32, ev tcp.StateSnapshot) {
	if slot := sp.slotOf[f]; slot >= 0 {
		e := sp.e
		e.rows[f].Snapshot(&e.tcp, e, &ev)
		sp.onState[slot](ev)
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
