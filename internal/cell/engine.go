package cell

import (
	"fmt"
	"math/bits"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// wheelTick and wheelBuckets size the timer wheel: the span (tick x
// buckets, 81.92 s) must exceed the 64 s RTO ceiling, the longest timer
// the engine ever arms.
const (
	wheelTick    = 10 * time.Millisecond
	wheelBuckets = 8192
)

// csdpPollInterval is how often a fully-blocked CSDP base station
// re-checks its channels (matches the reference engine's refPollInterval).
const csdpPollInterval = 10 * time.Millisecond

// pumpChunk bounds the micro-events the pump runs at one instant before
// it yields to the kernel, so budget and context checks stay live through
// same-instant storms (a 50k-flow admission wave is one instant).
const pumpChunk = 8192

// engine is the flat cell state: every per-flow and per-base-station
// quantity lives in a slice indexed by flow or base-station ID. It is also
// the tcp.Host of every flow's sender (flows.go).
type engine struct {
	s   *sim.Simulator
	cfg Config
	F   int // flow count
	B   int // base-station count

	rng   *sim.RNG // corruption + link-ack + TCP-ack loss draws
	pred  *sim.RNG // CSDP predictor error draws
	chaos *sim.RNG // fault-injection draws (isolated split)

	// chans holds one Markov channel per flow, or one per base station
	// when SharedChannel is set, in one slab.
	chans []errmodel.Markov

	wheel *wheel
	cal   calendar
	pump  *sim.Timer

	// tcp is every flow's sender configuration (Tahoe, the tcp package's
	// defaults); mss, adv and total are its segment, window and
	// transfer sizes in bytes.
	tcp   tcp.Config
	mss   int64
	adv   int64
	total int64

	// Precomputed transmission times: the radio link-ack / TCP-ack
	// (control size at wireless rate) and the wired reverse-pipe ack;
	// memoized ones for data segments on the radio and the wired hop.
	ackTxRadio time.Duration
	revAckTx   time.Duration
	radioTx    airtime
	wiredTx    airtime

	// ---- per-flow sender state: one tcp.State row each, plus what the
	// engine keeps about the flow as its host ----
	rows          []tcp.State
	cur           int32 // the flow the tcp.Host methods act on (see flow)
	started, done []bool
	finishAt      []time.Duration
	fTimeouts     []uint64
	fRetrans      []units.ByteSize

	// ---- per-flow sink state ----
	rcvNxt   []int64
	oooSeq   []int64 // F x segCap slab
	oooLen   []int32
	oooCount []int32
	segCap   int

	// ---- per-flow wired pipes (collapsed to busy-until horizons) ----
	fwdBusy, revBusy []time.Duration

	// ---- per-flow base-station queue rings (segment numbers, seq/mss) ----
	qSeg          []int32 // F x qCap slab
	qHead, qCount []int32
	qCap          int

	// tries is the flat ARQ table: the head packet's transmission count
	// per flow (stop-and-wait; the head is retried until acked or
	// discarded).
	tries []int32
	// unit numbers ARQ units per flow for the conformance sampler
	// (segment numbers repeat; unit IDs must not).
	unit []uint64

	// segs counts the data segments the network holds (see Transmit).
	segs segCount

	// ---- per-base-station radio state ----
	busy       []bool
	curFlow    []int32
	curSeq     []int64 // the segment on the radio: sequence number,
	curLen     []int64 // payload length
	curStart   []time.Duration
	rr         []int32 // round-robin pointer, in local flow indices
	nLocal     []int32 // flows hosted at this base station
	attempts   []uint64
	discards   []uint64
	skippedBad []uint64
	ebsnsSent  []uint64
	// fifo preserves global packet-arrival order per base station (FIFO
	// policy only).
	fifo []fifoRing
	// nonEmpty has one bit per local flow, neWords words per base station,
	// set exactly while that flow's queue holds a packet; queued counts
	// the set bits per station. Round-robin and CSDP scan the bits instead
	// of every flow's qCount.
	nonEmpty []uint64
	neWords  int
	queued   []int32
	// oneVerdict is set when a base station's flows share one channel
	// and the CSDP predictor is never wrong, so it takes no draw: one
	// prediction then holds for every flow there.
	oneVerdict bool

	doneCount int
	admitted  int

	events      uint64
	queueDrops  uint64
	chaosOn     bool
	chaosDrops  uint64
	chaosDups   uint64
	chaosDelays uint64
	oooOverflow uint64

	// fault is the run's first engine fault, or nil. A fault is a state
	// only an engine bug can produce — never a network condition — so the
	// rule is to fail closed: the source latches it, the run carries on
	// to the next kernel step on answers nobody will read, and loop (or
	// finish, for a fault raised at teardown) returns it in place of a
	// Result. There are four sources, and the first to fault names the
	// error: a segment off the MSS grid ("cell: off-grid segment",
	// latched by Transmit), a segment retired when none is live
	// ("cell: segment-conservation", latched by retire), a channel query
	// that reached before the window transmit left that channel
	// ("cell: channel-window", latched by the Markov and reported
	// through channelFault), and a flow whose sender state breaks
	// tcp.State.CheckInvariants when finish audits the population
	// ("cell: flow-invariant").
	fault error

	oracle *sampler

	// stepwise turns the pump's inline advance off: every instant is then
	// a kernel event of its own, the path the inline advance must match
	// bit for bit (tests only).
	stepwise bool
}

// airtime is a one-entry memo of units.TransmissionTime at one rate:
// nearly every packet a cell carries has one of two sizes, so the float
// division and rounding run when the size changes, not per packet.
type airtime struct {
	rate units.BitRate
	size units.ByteSize
	tx   time.Duration
}

// of reports the transmission time of size at a's rate.
func (a *airtime) of(size units.ByteSize) time.Duration {
	if size != a.size {
		a.size, a.tx = size, units.TransmissionTime(size, a.rate)
	}
	return a.tx
}

// fifoRing is a growable ring of flow IDs.
type fifoRing struct {
	buf   []int32
	head  int
	count int
}

func (r *fifoRing) push(v int32) {
	if r.count == len(r.buf) {
		n := len(r.buf) * 2
		if n < 16 {
			n = 16
		}
		buf := make([]int32, n)
		for i := 0; i < r.count; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = buf
		r.head = 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

func (r *fifoRing) peek() int32 { return r.buf[r.head] }

func (r *fifoRing) pop() {
	r.head = (r.head + 1) % len(r.buf)
	r.count--
}

// newEngine allocates every slab for cfg (already defaulted) and seeds
// the random state. The RNG split order is a compatibility contract with
// the reference engine (reference_test.go): root -> engine draws,
// predictor draws, one split per channel in index order; the chaos split
// comes last so chaos-free runs draw identically to the engine this one
// replaced.
func newEngine(cfg Config) (*engine, error) {
	F := cfg.Flows
	B := cfg.BaseStations
	e := &engine{
		cfg: cfg,
		F:   F,
		B:   B,

		tcp: tcp.Config{
			MSS:    cfg.PacketSize - packet.HeaderSize,
			Window: cfg.Window,
			Total:  cfg.TransferSize,
		}.WithDefaults(),
		mss:   int64(cfg.PacketSize - packet.HeaderSize),
		adv:   int64(cfg.Window),
		total: int64(cfg.TransferSize),

		ackTxRadio: units.TransmissionTime(packet.ControlSize, cfg.WirelessRate),
		revAckTx:   units.TransmissionTime(packet.ControlSize, cfg.WiredRate),
		radioTx:    airtime{rate: cfg.WirelessRate},
		wiredTx:    airtime{rate: cfg.WiredRate},

		chaosOn: cfg.faults.enabled(),
	}

	root := sim.NewRNG(cfg.Seed)
	e.rng = root.Split()
	e.pred = root.Split()
	nchan := F
	if cfg.SharedChannel {
		nchan = B
	}
	// Timelines extend on demand and transmit keeps each one a short
	// sliding window (errmodel.Markov.Forget), so set-up draws one
	// holding time per channel however long the horizon is.
	chans, err := errmodel.NewMarkovs(cfg.Channel, nchan, root)
	if err != nil {
		return nil, err
	}
	e.chans = chans
	e.chaos = root.Split()

	// Sender slabs.
	e.rows = make([]tcp.State, F)
	for f := range e.rows {
		e.rows[f] = e.tcp.NewState()
	}
	e.started = make([]bool, F)
	e.done = make([]bool, F)
	e.finishAt = make([]time.Duration, F)
	e.fTimeouts = make([]uint64, F)
	e.fRetrans = make([]units.ByteSize, F)

	// Sink slabs. Senders emit on the MSS grid inside the advertised
	// window, so at most window/mss+2 distinct out-of-order starts exist.
	e.rcvNxt = make([]int64, F)
	e.segCap = int(e.adv/e.mss) + 2
	e.oooSeq = make([]int64, F*e.segCap)
	e.oooLen = make([]int32, F*e.segCap)
	e.oooCount = make([]int32, F)

	e.fwdBusy = make([]time.Duration, F)
	e.revBusy = make([]time.Duration, F)

	e.qCap = cfg.PerFlowQueue
	e.qSeg = make([]int32, F*e.qCap)
	e.qHead = make([]int32, F)
	e.qCount = make([]int32, F)
	e.tries = make([]int32, F)
	e.unit = make([]uint64, F)

	// Base-station slabs.
	e.busy = make([]bool, B)
	e.curFlow = make([]int32, B)
	e.curSeq = make([]int64, B)
	e.curLen = make([]int64, B)
	e.curStart = make([]time.Duration, B)
	e.rr = make([]int32, B)
	e.nLocal = make([]int32, B)
	e.attempts = make([]uint64, B)
	e.discards = make([]uint64, B)
	e.skippedBad = make([]uint64, B)
	e.ebsnsSent = make([]uint64, B)
	if cfg.Policy == FIFO {
		e.fifo = make([]fifoRing, B)
	}
	for f := 0; f < F; f++ {
		e.nLocal[f%B]++
	}
	e.neWords = (int(e.nLocal[0]) + 63) / 64 // station 0 hosts the most
	e.nonEmpty = make([]uint64, B*e.neWords)
	e.queued = make([]int32, B)
	e.oneVerdict = cfg.SharedChannel && cfg.PredictorAccuracy >= 1

	e.wheel = newWheel(int64(wheelTick), wheelBuckets, F+B)
	return e, nil
}

// channelOf maps a flow to its fading channel.
func (e *engine) channelOf(f int32) *errmodel.Markov {
	if e.cfg.SharedChannel {
		return &e.chans[f%int32(e.B)]
	}
	return &e.chans[f]
}

// bsOf maps a flow to its base station.
func (e *engine) bsOf(f int32) int32 { return f % int32(e.B) }

// ---- queue rings ----

func (e *engine) qPush(f, seg int32) bool {
	if int(e.qCount[f]) >= e.qCap {
		return false
	}
	pos := int(f)*e.qCap + int((e.qHead[f]+e.qCount[f])%int32(e.qCap))
	e.qSeg[pos] = seg
	e.qCount[f]++
	if e.qCount[f] == 1 {
		b, l := int(f)%e.B, int(f)/e.B
		e.nonEmpty[b*e.neWords+l>>6] |= 1 << uint(l&63)
		e.queued[b]++
	}
	return true
}

func (e *engine) qHeadSeg(f int32) int32 {
	return e.qSeg[int(f)*e.qCap+int(e.qHead[f])]
}

func (e *engine) qPop(f int32) int32 {
	s := e.qHeadSeg(f)
	e.qHead[f] = (e.qHead[f] + 1) % int32(e.qCap)
	e.qCount[f]--
	if e.qCount[f] == 0 {
		b, l := int(f)%e.B, int(f)/e.B
		e.nonEmpty[b*e.neWords+l>>6] &^= 1 << uint(l&63)
		e.queued[b]--
	}
	return s
}

// ---- run loop ----

// bind attaches the engine to a kernel, pre-binds its pump timer and
// arms the sampled flows' checkers on the kernel's clock.
func (e *engine) bind(s *sim.Simulator) {
	e.s = s
	e.pump = sim.NewTimer(s, e.pumpFire)
	if e.cfg.OracleSample > 0 {
		e.oracle = newSampler(e, e.cfg.OracleSample)
	}
}

// begin admits the initial flows and arms the pump.
func (e *engine) begin() {
	if e.cfg.AdmitBatch <= 0 {
		for f := 0; f < e.F; f++ {
			e.startFlow(int32(f))
		}
		e.admitted = e.F
	} else {
		e.admitBatch()
	}
	e.rearm()
}

// loop steps the kernel until every flow completes, the horizon passes,
// the kernel fails (budget, conformance violation), or the engine
// faults.
func (e *engine) loop() error {
	s := e.s
	horizon := e.cfg.Horizon
	for e.doneCount < e.F && s.Now() < horizon {
		ok, err := s.Step()
		if err != nil {
			return err
		}
		if e.fault != nil {
			return e.fault
		}
		if !ok {
			break
		}
	}
	return nil
}

// channelFault records ch's latched window fault unless an earlier fault
// already owns the run.
func (e *engine) channelFault(ch *errmodel.Markov) {
	if e.fault == nil {
		e.fault = fmt.Errorf("cell: channel-window: %w", ch.Err())
	}
}

// lossDraw draws whether a transmission over [start, end) of ch is
// corrupted, failing closed when the channel has no answer (NaN: the
// query reached before its window).
func (e *engine) lossDraw(ch *errmodel.Markov, start, end time.Duration, bits int64) bool {
	mean := ch.ExpectedBitErrors(start, end, bits)
	if mean != mean {
		e.channelFault(ch)
	}
	return e.rng.PoissonAtLeastOne(mean)
}

// rearm sets the pump for the earliest pending micro-event, if any.
func (e *engine) rearm() {
	now := e.s.Now()
	if next, _ := e.nextEventAt(int64(now)); next >= 0 {
		e.pump.Set(time.Duration(next) - now)
	}
}

// nextEventAt reports the earliest pending micro-event time, or -1, and
// whether it is the calendar's: on a tie the calendar goes before the
// wheel.
func (e *engine) nextEventAt(nowNs int64) (next int64, onCalendar bool) {
	next = e.cal.minAt()
	if wAt := e.wheel.nextAt(nowNs); wAt >= 0 && (next < 0 || wAt < next) {
		return wAt, false
	}
	return next, next >= 0
}

// pumpFire drains every micro-event due at the current instant — the
// calendar before the wheel on ties, each in FIFO schedule order,
// mirroring the kernel's same-instant discipline — then moves on to the
// next instant. It moves there in place when the kernel's Advance lets
// it (nothing else is due first, no budget, context or failure would
// halt the kernel's next Step) and no engine fault is latched for loop to
// report; otherwise it re-arms the pump for that instant and returns.
// Either way the kernel counts one event per instant. It stops early when
// every flow is done or the horizon has passed (matching the object
// engine's per-event checks), and yields back to the kernel after
// pumpChunk events of one instant so budget and context enforcement see
// progress even inside a same-instant storm.
func (e *engine) pumpFire() {
	now := e.s.Now()
	nowNs := int64(now)
	horizon := e.cfg.Horizon
	for n := 0; ; {
		if e.doneCount == e.F {
			return
		}
		next, onCalendar := e.nextEventAt(nowNs)
		if next < 0 {
			return
		}
		if next > nowNs {
			if e.stepwise || e.fault != nil || !e.s.Advance(time.Duration(next)) {
				e.pump.Set(time.Duration(next) - now)
				return
			}
			now, nowNs, n = time.Duration(next), next, 0
		}
		e.events++
		if onCalendar {
			kind, f, b, a := e.cal.pop()
			switch kind {
			case evWiredArrive:
				e.wiredArrive(f, a)
			case evRadioDone:
				e.radioDone(b)
			case evSinkDeliver:
				e.sinkReceive(f, a)
			case evAckArrive:
				e.ackArrive(f, a)
			case evEBSNArrive:
				e.flow(f).OnEBSN(&e.tcp, e)
			case evAdmit:
				e.admitBatch()
			}
		} else {
			idx := e.wheel.popDue(next)
			if idx < 0 {
				return // defensive; cannot happen
			}
			e.fireTimer(idx)
		}
		if now >= horizon {
			// The object engine checked the horizon between kernel
			// events: exactly one event past the horizon runs.
			return
		}
		if n++; n >= pumpChunk {
			e.pump.Set(0)
			return
		}
	}
}

// fireTimer routes one wheel expiry: flow indices are RTO timers, the
// indices past them are per-base-station CSDP poll timers.
func (e *engine) fireTimer(idx int32) {
	if int(idx) < e.F {
		e.flow(idx).OnTimeout(&e.tcp, e)
		return
	}
	e.kick(idx - int32(e.F))
}

// admitBatch starts the next AdmitBatch flows and schedules the batch
// after it.
func (e *engine) admitBatch() {
	n := e.cfg.AdmitBatch
	if n <= 0 {
		n = e.F
	}
	for i := 0; i < n && e.admitted < e.F; i++ {
		e.startFlow(int32(e.admitted))
		e.admitted++
	}
	if e.admitted < e.F {
		e.cal.push(calEvent{at: int64(e.s.Now() + e.cfg.AdmitEvery), kind: evAdmit})
	}
}

// ---- base station ----

// wiredArrive admits the data segment at seq, which finished the wired
// hop, into its flow's base-station queue.
func (e *engine) wiredArrive(f int32, seq int64) {
	if !e.qPush(f, int32(seq/e.mss)) {
		e.queueDrops++
		e.retire(f)
		return // tail drop; TCP recovers end to end
	}
	b := e.bsOf(f)
	if e.cfg.Policy == FIFO {
		e.fifo[b].push(f)
	}
	e.kick(b)
}

// kick starts a transmission if base station b's radio is idle and a
// unit is eligible.
func (e *engine) kick(b int32) {
	if e.busy[b] {
		return
	}
	f, ok := e.pickNext(b)
	if !ok {
		return
	}
	if e.qCount[f] == 0 {
		return
	}
	e.transmit(b, f)
}

// pickNext selects the next flow to serve, per policy.
func (e *engine) pickNext(b int32) (int32, bool) {
	switch e.cfg.Policy {
	case FIFO:
		r := &e.fifo[b]
		for r.count > 0 {
			f := r.peek()
			if e.qCount[f] > 0 {
				return f, true
			}
			// The entry's packet was discarded; drop the stale slot.
			r.pop()
		}
		return 0, false
	case RoundRobin:
		return e.nextNonEmpty(b, false)
	default: // CSDP
		f, ok := e.nextNonEmpty(b, true)
		if ok {
			return f, true
		}
		// Everything pending is predicted bad: poll again shortly rather
		// than burn the radio on doomed transmissions.
		poll := int32(e.F) + b
		if e.anyQueued(b) && !e.wheel.armed(poll) {
			now := int64(e.s.Now())
			e.wheel.arm(poll, now+int64(csdpPollInterval), now)
		}
		return 0, false
	}
}

// nextNonEmpty serves round-robin from b's pointer: the first non-empty
// queue after it, ring-wise, skipping predicted-bad channels when csdp is
// set. It visits exactly the non-empty queues, in ring order — the
// predictor draws once per visit, so the order is part of the result —
// except when the predictor draws nothing and b's flows share one
// channel (oneVerdict), where one query answers for every visit.
func (e *engine) nextNonEmpty(b int32, csdp bool) (int32, bool) {
	if e.queued[b] == 0 {
		return 0, false
	}
	if csdp && e.oneVerdict {
		// Every visit would reach the same verdict: ask once, and count
		// a bad one as a skip of every non-empty queue.
		if !e.predictGood(b) {
			e.skippedBad[b] += uint64(e.queued[b])
			return 0, false
		}
		csdp = false
	}
	words := e.nonEmpty[int(b)*e.neWords : int(b+1)*e.neWords]
	n := e.nLocal[b]
	first := e.rr[b] + 1
	if first >= n {
		first = 0
	}
	// The ring from first is [first, n) then [0, first).
	lo, hi := first, n
	for lap := 0; lap < 2; lap++ {
		for l := nextSet(words, lo, hi); l >= 0; l = nextSet(words, l+1, hi) {
			f := l*int32(e.B) + b
			if csdp && !e.predictGood(f) {
				e.skippedBad[b]++
				continue
			}
			e.rr[b] = l
			return f, true
		}
		lo, hi = 0, first
	}
	return 0, false
}

// nextSet returns the lowest set bit in [from, to) of words, or -1.
func nextSet(words []uint64, from, to int32) int32 {
	for from < to {
		if w := words[from>>6] >> uint(from&63); w != 0 {
			if l := from + int32(bits.TrailingZeros64(w)); l < to {
				return l
			}
			return -1
		}
		from = (from | 63) + 1 // the next word's first bit
	}
	return -1
}

// anyQueued reports whether any of b's flows has pending packets.
func (e *engine) anyQueued(b int32) bool { return e.queued[b] > 0 }

// predictGood consults the channel predictor for a flow.
func (e *engine) predictGood(f int32) bool {
	ch := e.channelOf(f)
	state := ch.StateAt(e.s.Now())
	if state == 0 {
		e.channelFault(ch)
	}
	truth := state == errmodel.Good
	if e.pred.Bernoulli(e.cfg.PredictorAccuracy) {
		return truth
	}
	return !truth
}

// transmit puts flow f's head packet on base station b's radio
// (stop-and-wait: the radio is held until the link-ack deadline).
func (e *engine) transmit(b, f int32) {
	e.busy[b] = true
	e.attempts[b]++
	e.tries[f]++
	if e.tries[f] == 1 {
		e.unit[f]++
	}
	seq := int64(e.qHeadSeg(f)) * e.mss
	paylen := e.segLen(seq)
	start := e.s.Now()
	tx := e.radioTx.of(packet.HeaderSize + units.ByteSize(paylen))
	cycle := tx + 2*e.cfg.WirelessDelay + e.ackTxRadio

	e.curFlow[b] = f
	e.curSeq[b], e.curLen[b] = seq, paylen
	e.curStart[b] = start
	e.cal.push(calEvent{at: int64(start + cycle), kind: evRadioDone, bs: b})
	// This cycle's start bounds every later query of the channel from
	// below: radioDone looks back to curStart, every other query
	// (predictGood, sinkEmitAck) is at the then-current time, and the
	// radio is stop-and-wait, so no earlier cycle of this channel — the
	// flow's own, or with SharedChannel the base station's — is still
	// pending.
	e.channelOf(f).Forget(start)

	if e.oracle != nil {
		e.oracle.arqAttempt(f, int(e.tries[f]))
	}
}

// radioDone completes a stop-and-wait cycle: draw the data corruption
// over the fading window, then (for survivors) the link-ack loss; data
// that arrived is delivered regardless of the ack's fate — a lost ack
// only causes a duplicate later.
func (e *engine) radioDone(b int32) {
	f := e.curFlow[b]
	start := e.curStart[b]
	e.busy[b] = false

	ch := e.channelOf(f)
	size := packet.HeaderSize + units.ByteSize(e.curLen[b])
	tx := e.radioTx.of(size)
	corrupted := e.lossDraw(ch, start, start+tx, size.Bits())
	ackLost := false
	if !corrupted {
		// The link ack rides the same fading channel.
		ackStart := start + tx + e.cfg.WirelessDelay
		ackLost = e.lossDraw(ch, ackStart, ackStart+e.ackTxRadio, packet.ControlSize.Bits())
		e.deliverToSink(f, e.curSeq[b])
	}
	if corrupted || ackLost {
		e.onAttemptFailed(b, f)
	} else {
		e.onAttemptSucceeded(b, f)
	}
	e.kick(b)
}

// deliverToSink schedules the received copy of the segment at seq for
// hand-off to the mobile sink, one propagation delay away, with chaos
// faults applied.
func (e *engine) deliverToSink(f int32, seq int64) {
	delay := e.cfg.WirelessDelay
	if e.chaosOn {
		if e.chaos.Bernoulli(e.cfg.faults.dropP) {
			e.chaosDrops++
			return
		}
		if e.chaos.Bernoulli(e.cfg.faults.reorderP) {
			e.chaosDelays++
			delay += reorderDelay
		}
		if e.chaos.Bernoulli(e.cfg.faults.dupP) {
			e.chaosDups++
			e.cal.push(calEvent{at: int64(e.s.Now() + delay), kind: evSinkDeliver, flow: f, a: seq})
		}
	}
	e.cal.push(calEvent{at: int64(e.s.Now() + delay), kind: evSinkDeliver, flow: f, a: seq})
}

// onAttemptSucceeded pops the acknowledged head and resets its ARQ
// state.
func (e *engine) onAttemptSucceeded(b, f int32) {
	e.qPop(f)
	e.retire(f)
	e.tries[f] = 0
	if e.cfg.Policy == FIFO && e.fifo[b].count > 0 {
		e.fifo[b].pop()
	}
	if e.oracle != nil {
		e.oracle.arqAck(f)
	}
}

// onAttemptFailed notifies sources (EBSN) and retries or discards the
// head packet.
func (e *engine) onAttemptFailed(b, f int32) {
	if e.cfg.EBSN {
		at := int64(e.s.Now() + e.cfg.WiredDelay)
		if e.cfg.EBSNBroadcast {
			// The object engine's semantics: notify every source whose
			// data the base station is holding up — the one whose
			// transmission failed and any bystanders queued behind it.
			for l := int32(0); l < e.nLocal[b]; l++ {
				i := l*int32(e.B) + b
				if i != f && e.qCount[i] == 0 {
					continue
				}
				e.ebsnsSent[b]++
				e.cal.push(calEvent{at: at, kind: evEBSNArrive, flow: i})
			}
		} else {
			e.ebsnsSent[b]++
			e.cal.push(calEvent{at: at, kind: evEBSNArrive, flow: f})
		}
	}
	if e.oracle != nil {
		e.oracle.arqFailure(f, int(e.tries[f]))
	}
	if int(e.tries[f]) <= e.cfg.RTmax {
		return // head stays queued; the next pick may retry it
	}
	// Discard after RTmax retransmissions.
	e.discards[b]++
	e.qPop(f)
	e.retire(f)
	e.tries[f] = 0
	if e.cfg.Policy == FIFO && e.fifo[b].count > 0 {
		e.fifo[b].pop()
	}
	if e.oracle != nil {
		e.oracle.arqDiscard(f)
	}
}

// ---- teardown ----

// drain retires every segment the network still holds (queues, wired
// arrivals in flight), so the live count audits conservation: after
// drain, a non-zero count is a segment admitted and never retired, and
// one retired too many has latched its fault.
func (e *engine) drain() {
	for f := int32(0); f < int32(e.F); f++ {
		for e.qCount[f] > 0 {
			e.qPop(f)
			e.retire(f)
		}
	}
	for e.cal.len() > 0 {
		if kind, f, _, _ := e.cal.pop(); kind == evWiredArrive {
			e.retire(f)
		}
	}
}

// finish drains the network, audits every flow's sender state and
// assembles the Result.
func (e *engine) finish() (*Result, error) {
	e.drain()
	for f := range e.rows {
		if err := e.rows[f].CheckInvariants(&e.tcp); err != nil && e.fault == nil {
			e.fault = fmt.Errorf("cell: flow-invariant: flow %d: %w", f, err)
		}
	}
	if e.fault != nil {
		return nil, e.fault
	}

	res := &Result{
		Config:         e.cfg,
		Completed:      e.doneCount == e.F,
		CompletedFlows: e.doneCount,
		Flows:          make([]FlowResult, e.F),
		TotalTimeouts:  0,
		QueueDrops:     e.queueDrops,
		ChaosDrops:     e.chaosDrops,
		ChaosDups:      e.chaosDups,
		ChaosDelays:    e.chaosDelays,
		Events:         e.events,
		Arena:          e.segs.stats(),
		CalendarPeak:   e.cal.peak,
	}
	for b := 0; b < e.B; b++ {
		res.RadioAttempts += e.attempts[b]
		res.RadioDiscards += e.discards[b]
		res.SkippedBad += e.skippedBad[b]
		res.EBSNsSent += e.ebsnsSent[b]
	}
	var sum, sumSq float64
	for f := 0; f < e.F; f++ {
		elapsed := e.finishAt[f]
		if !e.done[f] {
			elapsed = e.s.Now()
		}
		tput := units.ThroughputKbps(e.cfg.TransferSize, elapsed)
		res.Flows[f] = FlowResult{
			Completed:    e.done[f],
			Elapsed:      elapsed,
			Timeouts:     e.fTimeouts[f],
			RetransBytes: e.fRetrans[f],
		}
		res.TotalTimeouts += e.fTimeouts[f]
		res.AggregateKbps += tput
		sum += tput
		sumSq += tput * tput
	}
	if n := float64(e.F); sumSq > 0 {
		res.Fairness = sum * sum / (n * sumSq)
	}
	return res, nil
}
