package cell

import (
	"time"

	"wtcp/internal/oracle"
	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
)

// sampler is the cell-scale conformance spot-check: full-population
// checking is unaffordable at 50k flows, so OracleSample flows — spread
// evenly across the ID space — get the repository's streaming Tahoe/ARQ
// oracle attached. Events for sampled flows are synthesized into the
// same trace.Event shape internal/trace produces from sender snapshots,
// so the checker rules apply verbatim; a violation fails the kernel (it
// surfaces from the run loop as an error).
type sampler struct {
	e        *engine
	slotOf   []int32 // flow -> checker slot, -1 unsampled
	checkers []*oracle.Checker
	counts   []int // per-checker event index
	mss      int64
	// ev is the event handed to a checker (checkers read through a
	// pointer; one scratch slot keeps sampled events off the heap).
	ev trace.Event
}

// newSampler attaches checkers to k flows (clamped to the population).
func newSampler(e *engine, k int) *sampler {
	if k > e.F {
		k = e.F
	}
	sp := &sampler{
		e:        e,
		slotOf:   make([]int32, e.F),
		checkers: make([]*oracle.Checker, k),
		counts:   make([]int, k),
		mss:      e.mss,
	}
	for f := range sp.slotOf {
		sp.slotOf[f] = -1
	}
	cfg := oracle.Config{
		Variant: tcp.Tahoe,
		MSS:     e.cfg.PacketSize - packet.HeaderSize,
		Window:  e.cfg.Window,
		MaxRTO:  e.maxRTO,
		RTmax:   e.cfg.RTmax,
	}
	step := e.F / k
	for i := 0; i < k; i++ {
		f := i * step
		sp.slotOf[f] = int32(i)
		sp.checkers[i] = oracle.New(cfg)
	}
	return sp
}

// observe feeds one synthesized event to flow f's checker, if sampled.
func (sp *sampler) observe(f int32, ev trace.Event) {
	slot := sp.slotOf[f]
	if slot < 0 {
		return
	}
	ev.At = sp.e.s.Now()
	ev.PacketNo = ev.Seq / sp.mss
	sp.ev = ev
	idx := sp.counts[slot]
	sp.counts[slot] = idx + 1
	if v := sp.checkers[slot].Observe(idx, &sp.ev); v != nil {
		sp.e.s.Fail("cell-oracle", v)
	}
}

// snapshot fills the post-transition sender fields recordState copies
// from a tcp.StateSnapshot.
func (sp *sampler) snapshot(f int32, ev trace.Event) trace.Event {
	e := sp.e
	ev.Cwnd = int64(e.cwnd[f])
	ev.Ssthresh = int64(e.ssthresh[f])
	ev.SndUna = e.sndUna[f]
	ev.SndNxt = e.sndNxt[f]
	ev.SndMax = e.sndMax[f]
	ev.RTO = e.rtoRTO(f)
	ev.Deadline = time.Duration(e.wheel.deadlineOf(f))
	ev.Shift = int(e.shift[f])
	ev.DupAcks = int(e.dupacks[f])
	return ev
}

// sampled reports whether flow f feeds a checker.
func (sp *sampler) sampled(f int32) bool { return sp.slotOf[f] >= 0 }

// ---- ARQ events (base-station side of the sampled flow's stream) ----

func (sp *sampler) arqAttempt(f int32, attempt int) {
	if !sp.sampled(f) {
		return
	}
	u := sp.e.unit[f]
	sp.observe(f, trace.Event{Kind: trace.ARQAttempt, Unit: u, Pkt: u, Attempt: attempt})
}

func (sp *sampler) arqFailure(f int32, attempt int) {
	if !sp.sampled(f) {
		return
	}
	u := sp.e.unit[f]
	sp.observe(f, trace.Event{Kind: trace.ARQFailure, Unit: u, Pkt: u, Attempt: attempt})
}

func (sp *sampler) arqAck(f int32) {
	if !sp.sampled(f) {
		return
	}
	u := sp.e.unit[f]
	sp.observe(f, trace.Event{Kind: trace.ARQAck, Unit: u, Pkt: u})
}

func (sp *sampler) arqDiscard(f int32) {
	if !sp.sampled(f) {
		return
	}
	sp.observe(f, trace.Event{Kind: trace.ARQDiscard, Pkt: sp.e.unit[f]})
}

// ---- sender events (engine-facing emission helpers) ----

// oracleSend records a Send/Retransmit event for a sampled flow.
func (e *engine) oracleSend(f int32, seq, seglen int64, retx bool) {
	if e.oracle == nil || !e.oracle.sampled(f) {
		return
	}
	kind := trace.Send
	if retx {
		kind = trace.Retransmit
	}
	e.oracle.observe(f, e.oracle.snapshot(f, trace.Event{Kind: kind, Seq: seq, Payload: seglen}))
}

// oracleAck records an AckIn event for a sampled flow.
func (e *engine) oracleAck(f int32, ackNo int64, class tcp.AckClass) {
	if e.oracle == nil || !e.oracle.sampled(f) {
		return
	}
	e.oracle.observe(f, e.oracle.snapshot(f,
		trace.Event{Kind: trace.AckIn, Ack: ackNo, AckClass: int(class)}))
}

// oracleState records a Timeout/FastRetx/EBSNReset event for a sampled
// flow (kind given as the sender state kind, mirroring recordState).
func (e *engine) oracleState(f int32, st tcp.StateKind, seq int64) {
	if e.oracle == nil || !e.oracle.sampled(f) {
		return
	}
	var kind trace.EventKind
	switch st {
	case tcp.StateTimeout:
		kind = trace.Timeout
	case tcp.StateFastRetx:
		kind = trace.FastRetx
	case tcp.StateEBSN:
		kind = trace.EBSNReset
	default:
		return
	}
	e.oracle.observe(f, e.oracle.snapshot(f, trace.Event{Kind: kind, Seq: seq}))
}
