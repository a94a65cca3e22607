// Package cell is the flat, index-addressed multi-flow engine: a whole
// cell of 10k-100k concurrent TCP transfers sharing base-station radios,
// with per-flow sender/sink state held in slabs indexed by flow ID, data
// segments in a shared refcounted arena, one flat ARQ table per base
// station, and a single hashed timer wheel for every RTO timer in the run
// — so the zero-alloc event kernel stays zero-alloc at 1000x the flow
// count of the object-graph engines.
//
// The senders are internal/tcp's state machine itself, run in place on a
// slab of tcp.State rows with the engine as their tcp.Host; the
// immediate-ack sink and the shared-radio scheduler of the paper's §2
// scheduling study [Bhagwat 95] (FIFO / round-robin / CSDP with EBSN) are
// the cell's own flat forms. Given the same configuration and seed, a
// cell run is bit-identical to the object-per-flow engine it replaced,
// which reference_test.go keeps as a test-only differential reference.
package cell

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Policy selects a base station's radio scheduling discipline.
type Policy int

// Policies.
const (
	// FIFO serves packets in global arrival order; a fading head blocks
	// every flow behind it.
	FIFO Policy = iota + 1
	// RoundRobin cycles across per-flow queues.
	RoundRobin
	// CSDP is round-robin that skips flows whose channel the predictor
	// marks bad.
	CSDP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case RoundRobin:
		return "roundrobin"
	case CSDP:
		return "csdp"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Chaos injects seeded faults at the radio-to-sink boundary, for the
// arena leak/double-free property tests and robustness studies: each
// successfully received segment may be dropped, duplicated, or delayed
// (reordered) on its way to the sink. All draws come from a dedicated
// RNG split, so enabling chaos never perturbs the protocol draw
// sequence of a chaos-free run.
type Chaos struct {
	// DropP loses the delivery entirely (TCP recovers end to end).
	DropP float64
	// DupP delivers the segment twice.
	DupP float64
	// ReorderP delays the delivery by ReorderDelay (default 5 ms),
	// letting later segments overtake it.
	ReorderP     float64
	ReorderDelay time.Duration
}

func (c Chaos) enabled() bool { return c.DropP > 0 || c.DupP > 0 || c.ReorderP > 0 }

// Config parameterizes a cell run.
type Config struct {
	// Flows is the number of concurrent TCP transfers in the cell.
	Flows int
	// BaseStations shards the flows across radios (flow f belongs to
	// base station f mod BaseStations). Zero means one.
	BaseStations int
	// Policy is each base station's scheduling discipline.
	Policy Policy
	// TransferSize is moved per flow; PacketSize is the segment size
	// (header included); Window is each flow's advertised window.
	TransferSize units.ByteSize
	PacketSize   units.ByteSize
	Window       units.ByteSize
	// WiredRate/WiredDelay parameterize each flow's wired hop (both
	// directions).
	WiredRate  units.BitRate
	WiredDelay time.Duration
	// WirelessRate/WirelessDelay parameterize each base station's shared
	// radio.
	WirelessRate  units.BitRate
	WirelessDelay time.Duration
	// Channel is the Gilbert fading model. With SharedChannel every base
	// station gets one channel its flows all ride (a fade hits the
	// medium); otherwise every flow fades independently (the CSDP study
	// setup, and what LAN uses).
	Channel       errmodel.Config
	SharedChannel bool
	// PredictorAccuracy is the probability the CSDP predictor reports
	// the true channel state. Ignored by other policies.
	PredictorAccuracy float64
	// EBSN notifies sources after every unsuccessful link attempt.
	// EBSNBroadcast extends the notification to every flow with queued
	// data at that base station (the CSDP study's semantics, set by LAN);
	// without it only the failing flow is notified, which is the only
	// affordable variant at cell scale.
	EBSN          bool
	EBSNBroadcast bool
	// RTmax bounds link-level retransmissions per packet before the base
	// station discards it. Zero defaults to 64.
	RTmax int
	// PerFlowQueue bounds each flow's base-station queue, in packets.
	// Zero defaults to 20.
	PerFlowQueue int
	// AdmitBatch/AdmitEvery stagger flow admission: AdmitBatch flows
	// start at t=0 and every AdmitEvery thereafter until all are
	// running. Zero AdmitBatch starts every flow at t=0 (as the CSDP
	// study does).
	AdmitBatch int
	AdmitEvery time.Duration
	// OracleSample attaches the streaming Tahoe/ARQ conformance checker
	// to this many flows, spread evenly across the population. Zero
	// checks nothing (full-population checking is unaffordable at 50k
	// flows; sampling keeps correctness coverage at scale).
	OracleSample int
	// Chaos injects radio-delivery faults (see Chaos).
	Chaos Chaos
	// Seed drives all randomness; Horizon caps the run (default 4 h).
	Seed    int64
	Horizon time.Duration
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.BaseStations <= 0 {
		c.BaseStations = 1
	}
	if c.Horizon <= 0 {
		c.Horizon = 4 * time.Hour
	}
	if c.RTmax <= 0 {
		c.RTmax = 64
	}
	if c.PerFlowQueue <= 0 {
		c.PerFlowQueue = 20
	}
	if c.Chaos.ReorderDelay <= 0 {
		c.Chaos.ReorderDelay = 5 * time.Millisecond
	}
	return c
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.Flows <= 0:
		return errors.New("cell: need at least one flow")
	case c.Policy < FIFO || c.Policy > CSDP:
		return errors.New("cell: unknown policy")
	case c.PacketSize <= packet.HeaderSize:
		return errors.New("cell: packet size below header")
	case c.TransferSize <= 0:
		return errors.New("cell: nothing to transfer")
	case c.Window < c.PacketSize-packet.HeaderSize:
		return errors.New("cell: window below one segment")
	case c.WiredRate <= 0 || c.WirelessRate <= 0:
		return errors.New("cell: rates must be positive")
	case c.PredictorAccuracy < 0 || c.PredictorAccuracy > 1:
		return errors.New("cell: predictor accuracy outside [0,1]")
	case c.BaseStations < 0 || (c.BaseStations > c.Flows && c.Flows > 0):
		return errors.New("cell: more base stations than flows")
	case c.Chaos.DropP < 0 || c.Chaos.DropP > 1 ||
		c.Chaos.DupP < 0 || c.Chaos.DupP > 1 ||
		c.Chaos.ReorderP < 0 || c.Chaos.ReorderP > 1:
		return errors.New("cell: chaos probabilities outside [0,1]")
	default:
		return c.Channel.Validate()
	}
}

// Preset returns a metro-cell scale scenario with n flows: ~10k flows
// per base station over a shared Gilbert channel, a small-cell radio
// (1 Gbps, 5 us propagation), fast wire, round-robin service with EBSN
// to the failing flow, and staggered admission. The transfer is sized so
// a healthy run settles most flows inside a 60-virtual-second horizon.
func Preset(n int) Config {
	b := (n + 9999) / 10000
	if b < 1 {
		b = 1
	}
	batch := n / 25
	if batch < 100 {
		batch = 0 // small populations just start together
	}
	return Config{
		Flows:             n,
		BaseStations:      b,
		Policy:            RoundRobin,
		TransferSize:      32 * units.KB,
		PacketSize:        1536,
		Window:            16 * units.KB,
		WiredRate:         10000 * units.Mbps,
		WiredDelay:        200 * time.Microsecond,
		WirelessRate:      1000 * units.Mbps,
		WirelessDelay:     5 * time.Microsecond,
		Channel:           errmodel.PaperLAN(500 * time.Millisecond),
		SharedChannel:     true,
		PredictorAccuracy: 1.0,
		EBSN:              true,
		EBSNBroadcast:     false,
		RTmax:             16,
		PerFlowQueue:      20,
		AdmitBatch:        batch,
		AdmitEvery:        5 * time.Millisecond,
		Seed:              1,
		Horizon:           60 * time.Second,
	}
}

// LAN returns the paper's wireless LAN environment with n flows under the
// given policy, as the §2 scheduling study runs it: one 2 Mbps radio,
// every mobile fading independently under PaperLAN(meanBad), and EBSN,
// when enabled, notifying every flow with data queued behind a failed
// attempt. RTmax, PerFlowQueue and Horizon take their defaults.
func LAN(n int, policy Policy, meanBad time.Duration) Config {
	return Config{
		Flows:             n,
		Policy:            policy,
		TransferSize:      512 * units.KB,
		PacketSize:        1536,
		Window:            16 * units.KB,
		WiredRate:         10 * units.Mbps,
		WiredDelay:        time.Millisecond,
		WirelessRate:      2 * units.Mbps,
		WirelessDelay:     time.Millisecond,
		Channel:           errmodel.PaperLAN(meanBad),
		PredictorAccuracy: 1.0,
		EBSNBroadcast:     true,
		Seed:              1,
	}
}

// FlowResult is one flow's outcome.
type FlowResult struct {
	Completed bool
	// Elapsed is the transfer time (or the run length if unfinished).
	Elapsed time.Duration
	// Timeouts counts source RTO expiries; RetransBytes the bytes the
	// source retransmitted (header included).
	Timeouts     uint64
	RetransBytes units.ByteSize
}

// Result is a whole cell run's outcome.
type Result struct {
	Config    Config
	Completed bool // every flow finished
	// CompletedFlows counts flows that finished inside the horizon.
	CompletedFlows int
	// Flows holds per-flow outcomes, indexed by flow ID.
	Flows []FlowResult
	// AggregateKbps sums per-flow goodput; Fairness is Jain's index over
	// the per-flow throughputs.
	AggregateKbps float64
	Fairness      float64
	// Radio counters, summed across base stations.
	RadioAttempts uint64
	RadioDiscards uint64
	SkippedBad    uint64
	EBSNsSent     uint64
	// TotalTimeouts aggregates source timeouts; QueueDrops counts
	// base-station tail drops; ChaosDrops/ChaosDups/ChaosDelays count
	// injected faults.
	TotalTimeouts uint64
	QueueDrops    uint64
	ChaosDrops    uint64
	ChaosDups     uint64
	ChaosDelays   uint64
	// Events counts engine micro-events processed (calendar pops plus
	// wheel fires); the scale SLOs express wall bounds per event.
	Events uint64
	// Arena summarizes packet-slot usage; LiveAtEnd must be zero.
	Arena ArenaStats
	// CalendarPeak is the most one-shot events the calendar held at once:
	// packets and acks in flight on a wire or a radio, not flows.
	CalendarPeak int
}

// Run executes one cell simulation on a pooled kernel.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg, sim.Budget{})
}

// RunContext is Run with cooperative cancellation and a resource budget:
// the kernel polls ctx between events and halts cleanly once it ends
// (the error unwraps to ctx.Err()), and a non-zero budget caps fired
// events, virtual time, wall-clock time, and heap bytes, surfacing
// exhaustion as a *sim.BudgetError. The pump moves between instants
// through sim.Advance, which refuses wherever the kernel's next Step
// would halt, and yields to the kernel every few thousand micro-events of
// one instant, so both stay live even inside a same-instant admission
// wave. A zero budget imposes no ceilings.
func RunContext(ctx context.Context, cfg Config, budget sim.Budget) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Acquire from the kernel pool so sweeps of cell runs reuse the event
	// heap slab, like the single-connection runners do. The simulator is
	// returned on every exit path here; a panic propagates without
	// releasing (the pool must only hold simulators known mid-nothing).
	s := sim.Acquire()
	s.SetBudget(budget)
	s.Bind(ctx)
	e.bind(s)
	e.begin()
	if err := e.loop(); err != nil {
		sim.Release(s)
		return nil, err
	}
	res, err := e.finish()
	sim.Release(s)
	return res, err
}
