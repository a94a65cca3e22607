// Package core is the library's composition layer: it wires the paper's
// Figure 2 topology — a TCP source in a fixed host (FH), a base station
// (BS) bridging a wired and a wireless link, and a TCP sink in a mobile
// host (MH) — and runs one bulk transfer under a chosen base-station
// scheme, returning every measurement the evaluation needs.
//
//	FH ──wired──▶ BS ──wireless──▶ MH
//	FH ◀─wired─── BS ◀─wireless─── MH
//
// Presets reproduce the paper's two environments: a wide-area network
// (56 kbps wire, 19.2 kbps radio with 1.5x overhead, 128-byte MTU, 4 KB
// window, 100 KB transfer) and a local-area network (10 Mbps wire, 2 Mbps
// radio, no fragmentation, 64 KB window, 4 MB transfer).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/errmodel"
	"wtcp/internal/link"
	"wtcp/internal/metrics"
	"wtcp/internal/node"
	"wtcp/internal/oracle"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// Config fully describes one simulation run.
type Config struct {
	// Scheme selects the base-station behaviour.
	Scheme bs.Scheme
	// PacketSize is the wired-network packet size (payload + 40-byte
	// header) — the paper's swept parameter, 128..1536 bytes.
	PacketSize units.ByteSize
	// TransferSize is the bulk payload to move end to end.
	TransferSize units.ByteSize
	// Window is the receiver's advertised window.
	Window units.ByteSize

	// WiredRate/WiredDelay parameterize the FH-BS link (both directions).
	WiredRate  units.BitRate
	WiredDelay time.Duration
	// WirelessRate/WirelessDelay/WirelessOverhead parameterize the BS-MH
	// link (both directions). Overhead is the on-air byte multiplier
	// (1.5 in the paper's WAN).
	WirelessRate     units.BitRate
	WirelessDelay    time.Duration
	WirelessOverhead float64
	// MTU is the wireless fragmentation threshold; zero disables
	// fragmentation.
	MTU units.ByteSize

	// Channel is the burst-error model for the wireless hop. Both
	// directions share one channel process (a fade hits the medium).
	Channel errmodel.Config

	// ARQ tunes the base station's link-level retransmission. Zero
	// values use defaults; the link-ack deadline is derived from the
	// radio (bs.AckDeadline).
	ARQ bs.ARQConfig

	// TCP tuning. Zero values use the paper's defaults (Tahoe,
	// per-segment ACKs); the 100 ms clock and 3 s initial RTO are fixed
	// (tcp.Granularity, tcp.InitialRTO).
	Variant tcp.Variant
	// DelayedAcks enables RFC 1122 delayed acknowledgments at the sink
	// (an ablation; the paper's ns sink acks every segment).
	DelayedAcks bool
	// ECN enables congestion marking at the wired queue (CE on packets
	// admitted past half occupancy) with [Floyd 94] window-halving at
	// the source — the §6 future-work interaction study with EBSN.
	ECN bool
	// NotifyEvery thins the EBSN/quench stream to every Nth failed
	// attempt (the presets' 1 is the paper's every-attempt behaviour).
	NotifyEvery int
	// SACK enables selective acknowledgments at both endpoints (an
	// ablation; the paper's TCP predates RFC 2018). It mitigates the
	// go-back-N cost of multi-loss windows — the TCP-side alternative to
	// pushing recovery into the base station.
	SACK bool

	// CrossTraffic injects competing load on the wired forward link —
	// the congested-wire scenario the paper defers to future work
	// ("we are separately studying the impact of congestion in the wired
	// network on the effectiveness of EBSN"). Zero value = no cross
	// traffic.
	CrossTraffic CrossTraffic

	// Chaos, when non-nil, injects the configured faults — link
	// blackouts, loss storms, base-station crashes, cell handoffs,
	// notification faults, and per-packet corruption/duplication/
	// reordering — on top of the scenario. All chaos randomness derives
	// from Seed, so a chaos run is reproducible bit-for-bit. A nil or
	// empty plan injects nothing.
	Chaos *chaos.Config

	// Checks enables periodic runtime invariant checking: sender window
	// and sequence consistency, sequence-number monotonicity, packet
	// conservation on every hop, and the event-heap's own structure. A
	// violation aborts the run with an error — it means a protocol bug,
	// not a network condition. Checks run every virtual second.
	Checks bool
	// Stall configures the no-progress watchdog: if no payload byte is
	// newly acknowledged for this much virtual time, the run is aborted
	// with a diagnostic snapshot instead of burning events until the
	// horizon. Zero arms the watchdog at DefaultStall whenever Checks or
	// Chaos are active (chaos can wedge a transfer by design); a negative
	// value disables it.
	Stall time.Duration
	// Budget bounds the run's resource consumption: fired events (the
	// same-instant livelock guard the watchdog cannot provide), virtual
	// time, wall-clock time, and heap bytes. Exhaustion halts the run
	// with a *sim.BudgetError as the run error. The zero value imposes
	// no ceilings; the experiment engine layers its own defaults on top
	// (see experiment.Options). The budget reads no simulation state, so
	// a run that stays within it is bit-identical to an unbudgeted run.
	Budget sim.Budget

	// Seed drives all randomness in the run (channel, corruption draws,
	// ARQ backoff).
	Seed int64
	// Horizon caps virtual time as a runaway guard; the presets set
	// DefaultHorizon.
	Horizon time.Duration
	// CollectTrace and Oracle each attach one consumer to the run's event
	// stream (see tapSender); they are independent, and neither changes a
	// result bit.
	//
	// CollectTrace stores the stream: Result.Trace (the Figure 3-5 packet
	// trace, and through Trace.Cwnd the window series) is non-nil exactly
	// when it is set.
	CollectTrace bool
	// Oracle checks the stream: every event is validated against the
	// variant's sender state machine, the link-layer ARQ contract, the
	// snoop agent's cache discipline and the EBSN/quench notification
	// rules as the run executes (see internal/oracle). A violation halts
	// the run and is returned as the run error, naming the broken rule
	// and the event's index — its position in the stream, the same number
	// whether or not the stream is also stored. The oracle retains no
	// events. It also turns on the base station's and mobile host's
	// instrumentation, so with CollectTrace the stored trace carries
	// their events too.
	Oracle bool
}

// DefaultHorizon bounds a run that fails to complete (e.g. a pathological
// parameter choice); generous relative to the paper's ~minute transfers.
const DefaultHorizon = 4 * time.Hour

// DefaultStall is the watchdog's default no-progress window. Generous
// relative to every legitimate quiet period in the paper's scenarios (the
// longest backed-off RTO is 64 s and mean fades are seconds), so only a
// genuinely wedged run trips it.
const DefaultStall = 5 * time.Minute

// CrossTraffic describes Poisson background load sharing the wired
// forward link's queue with the connection under study. The packets
// (crossPacketSize bytes) are routed elsewhere (they consume wired
// bandwidth and queue slots, then leave at the base station), so their
// only effect is congestion: added queueing delay and drop pressure on
// the studied connection.
type CrossTraffic struct {
	// Rate is the average offered load.
	Rate units.BitRate
}

// enabled reports whether any load is configured.
func (c CrossTraffic) enabled() bool { return c.Rate > 0 }

// crossPacketSize is the size of every cross-traffic packet.
const crossPacketSize units.ByteSize = 576

// crossConn marks cross-traffic packets; the base-station side discards
// them after they have crossed (and congested) the wired link.
const crossConn = -1

// Paper constants.
const (
	// PaperHeader is the TCP/IP header size (40 bytes).
	PaperHeader = packet.HeaderSize
	// PaperWANPacketDefault is the IP default datagram size the paper
	// highlights (576 bytes).
	PaperWANPacketDefault units.ByteSize = 576
)

// WAN returns the paper's wide-area configuration for a given scheme,
// wired packet size, and mean bad-period length.
func WAN(scheme bs.Scheme, packetSize units.ByteSize, meanBad time.Duration) Config {
	return Config{
		Scheme:           scheme,
		PacketSize:       packetSize,
		TransferSize:     100 * units.KB,
		Window:           4 * units.KB,
		WiredRate:        56 * units.Kbps,
		WiredDelay:       50 * time.Millisecond,
		WirelessRate:     link.BitRateWirelessWAN,
		WirelessDelay:    5 * time.Millisecond,
		WirelessOverhead: 1.5,
		MTU:              128,
		Channel:          errmodel.PaperWAN(meanBad),
		NotifyEvery:      1,
		Seed:             1,
		Horizon:          DefaultHorizon,
	}
}

// LAN returns the paper's local-area configuration for a given scheme and
// mean bad-period length (packet size fixed at 1536 bytes, no
// fragmentation).
func LAN(scheme bs.Scheme, meanBad time.Duration) Config {
	return Config{
		Scheme:        scheme,
		PacketSize:    1536,
		TransferSize:  4 * units.MB,
		Window:        64 * units.KB,
		WiredRate:     10 * units.Mbps,
		WiredDelay:    time.Millisecond,
		WirelessRate:  2 * units.Mbps,
		WirelessDelay: time.Millisecond,
		MTU:           0,
		Channel:       errmodel.PaperLAN(meanBad),
		// LAN link-protocol timing. The source's RTO sits at its 200 ms
		// floor on a LAN, so the EBSN stream (one per failed attempt)
		// must arrive well inside 200 ms: short ack timeouts and short
		// backoffs give a ~60-80 ms per-unit retry cycle. RTmax = 13 is
		// CDPD's wide-area constant; at this cycle it would give up after
		// ~1 s, inside ordinary fades, so the LAN preset allows 64
		// retransmissions (~5 s of persistence, outlasting the paper's
		// 0.4-1.6 s mean fades).
		ARQ: bs.ARQConfig{
			RTmax:      64,
			BackoffMax: 100 * time.Millisecond,
		},
		NotifyEvery: 1,
		Seed:        1,
		Horizon:     DefaultHorizon,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.PacketSize <= PaperHeader:
		return fmt.Errorf("core: packet size %d does not exceed the %d-byte header", c.PacketSize, PaperHeader)
	case c.TransferSize <= 0:
		return errors.New("core: nothing to transfer")
	case c.Window < c.PacketSize-PaperHeader:
		return errors.New("core: window below one segment")
	case c.WiredRate <= 0 || c.WirelessRate <= 0:
		return errors.New("core: links need positive rates")
	case c.WirelessOverhead < 0:
		return errors.New("core: negative wireless overhead")
	case c.MTU < 0:
		return errors.New("core: negative MTU")
	case c.Horizon <= 0:
		return fmt.Errorf("core: horizon %v is not positive (the presets set %v)", c.Horizon, DefaultHorizon)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.Scheme == bs.SplitConnection && c.Chaos.Enabled() {
		// The split topology has no single base-station agent to crash and
		// relays rather than forwards, so the fault plan's link names do
		// not mean the same thing there.
		return errors.New("core: fault injection is not supported for split-connection runs")
	}
	return c.Channel.Validate()
}

// MSS reports the TCP payload per segment implied by the packet size.
func (c Config) MSS() units.ByteSize { return c.PacketSize - PaperHeader }

// EffectiveWirelessRate reports the post-overhead data rate of the
// wireless hop (12.8 kbps for the paper's WAN radio).
func (c Config) EffectiveWirelessRate() units.BitRate {
	if c.WirelessOverhead <= 1 {
		return c.WirelessRate
	}
	return units.BitRate(float64(c.WirelessRate) / c.WirelessOverhead)
}

// TheoreticalMaxKbps reports the paper's tput_th: the effective wireless
// rate scaled by the channel's good-time fraction.
func (c Config) TheoreticalMaxKbps() float64 {
	return float64(c.EffectiveWirelessRate()) / 1000 * c.Channel.GoodFraction()
}

// Result carries everything measured in one run.
type Result struct {
	// Config echoes the run parameters.
	Config Config
	// Completed reports whether the transfer finished before the horizon.
	Completed bool
	// Summary holds the paper's metrics (throughput, goodput,
	// retransmitted data).
	Summary metrics.Summary
	// Sender, Sink, BS, Mobile, WirelessDown, WirelessUp expose raw
	// component counters for deeper analysis.
	Sender       tcp.Stats
	Sink         tcp.SinkStats
	BS           bs.Stats
	Mobile       node.MobileStats
	WirelessDown link.Stats
	WirelessUp   link.Stats
	// Trace is non-nil when Config.CollectTrace was set: the stored
	// event stream, the packet trace of Figures 3-5 (Trace.Cwnd reads
	// the congestion-window series off it).
	Trace *trace.Trace

	// Events counts the kernel events the run fired — the engine's
	// health telemetry aggregates it into an events/sec rate.
	Events uint64

	// Aborted marks a run halted by the no-progress watchdog;
	// AbortReason carries its diagnostic snapshot. An aborted run's
	// Summary reflects progress up to the abort, like a horizon-capped
	// run's.
	Aborted     bool
	AbortReason string
	// Chaos holds the injected-fault counters when Config.Chaos was
	// active (nil otherwise).
	Chaos *chaos.Stats

	// SplitWireless holds the base station's wireless-side sender
	// counters for split-connection runs (nil otherwise); SplitWiredDone
	// is when the fixed host's half finished — before the mobile host
	// had the data, the end-to-end-semantics violation the paper points
	// out.
	SplitWireless  *tcp.Stats
	SplitWiredDone time.Duration

	// Kernel holds the event kernel's own counters for the run
	// (cancellations, heap high-water); Packets is the packet pool's
	// audit after teardown — LiveAtEnd is zero unless a component leaked
	// a reference.
	Kernel  sim.Stats
	Packets packet.PoolStats

	// SnoopCacheLen is the snoop cache's occupancy when the run ended
	// (always zero for non-snoop schemes). A completed transfer must
	// drain it to zero — every cached copy is eventually acked or
	// evicted at the retransmission cap.
	SnoopCacheLen int
}

// PanicError reports a simulation that panicked. RunContext converts the
// panic to an error so a sweep can retry or skip the replication — and
// emit a reproduction bundle — instead of crashing the whole campaign.
type PanicError struct {
	// Value is the panic value, stringified.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return "core: run panicked: " + e.Value }

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx at event boundaries and halts cleanly between events once it ends,
// returning an error that unwraps to ctx.Err(). A panic anywhere inside
// the run is recovered into a *PanicError instead of taking down the
// caller.
func RunContext(ctx context.Context, cfg Config) (res *Result, err error) {
	// A run that exits normally returns its simulator and packet pool to
	// their process-wide pools (see teardown). A panicked run never does:
	// the simulator may be mid-callback with who-knows-what half-applied,
	// and the pools must only ever hold storage known to be consistent.
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tp, err := newTopology(cfg, false)
	if err != nil {
		return nil, err
	}
	tr := tp.tap(cfg, cfg.CollectTrace)
	done := tp.sender.Done
	if tp.relay != nil {
		done = tp.relay.sender.Done // the transfer ends when the mobile host has it
	}
	stall, err := tp.run(ctx, cfg, done)
	if err != nil {
		tp.release()
		return nil, err
	}
	res = tp.result(cfg)
	if stall != nil {
		res.Aborted = true
		res.AbortReason = stall.Error()
	}
	res.Trace = tr
	if res.Packets, err = tp.release(); err != nil {
		return nil, err
	}
	return res, nil
}

// run arms the supervision cfg asks for — the caller's context, the
// periodic invariant checks, the no-progress watchdog — starts the
// senders and steps the simulator until done reports true (see stepUntil).
func (tp *topology) run(ctx context.Context, cfg Config, done func() bool) (*sim.StallError, error) {
	tp.sim.Bind(ctx)
	if cfg.Checks {
		tp.registerInvariants()
		tp.sim.EnableChecks()
	}
	if stall := cfg.stallWindow(); stall > 0 {
		tp.sim.StartWatchdog(stall, tp.acked, tp.snapshot)
	}
	tp.sender.Start()
	if tp.relay != nil {
		tp.relay.sender.Start()
	}
	return stepUntil(tp.sim, cfg.Horizon, done)
}

// stepUntil fires events until done reports true, virtual time reaches the
// horizon, the queue drains or a failure latches. An event scheduled past
// the horizon never fires: the clock stops at the horizon instead. The
// watchdog's abort is returned as stall: a network outcome, like a
// horizon-capped run. Any other failure is the run error: a violation is a
// protocol bug, a spent budget or a cancellation (a *CancelError unwraps
// to ctx.Err()) the caller's limit.
func stepUntil(s *sim.Simulator, horizon time.Duration, done func() bool) (stall *sim.StallError, err error) {
	for !done() && s.Now() < horizon && s.Failure() == nil {
		if ok, err := s.StepUntil(horizon); !ok || err != nil {
			break
		}
	}
	if f := s.Failure(); f != nil && !errors.As(f, &stall) {
		return nil, f
	}
	return stall, nil
}

// orStall makes the watchdog's abort the run error, for the runners whose
// result type has no place to report one.
func orStall(stall *sim.StallError, err error) error {
	if err == nil && stall != nil {
		return stall
	}
	return err
}

// acked is the watchdog's progress counter: bytes acknowledged (in split
// mode, over the wireless half, whose completion ends the run).
func (tp *topology) acked() int64 {
	if tp.relay != nil {
		return tp.relay.sender.SndUna()
	}
	return tp.sender.SndUna()
}

// holder is a component that can be holding packets when a run stops:
// links, the base station, the mobile host, the fault injector.
type holder interface{ ReleaseAll() }

// release ends a run's use of its kernel and packet pool; the topology
// must not be used afterwards. Every holder gives up the packets it still
// has, so the pool's live count audits reference hygiene — what remains
// is a leaked reference — and the recycled packets stay with the pool;
// then both go back to their process-wide pools, warm for the next run. A
// lifetime fault the pool latched during the run (see packet.Pool) is
// returned as an invariant violation, which Classify files under protocol
// bugs.
func (tp *topology) release() (packet.PoolStats, error) {
	holders := append(make([]holder, 0, 7), tp.wiredFwd, tp.wiredRev, tp.wirelessDown, tp.wirelessUp)
	if tp.bs != nil {
		holders = append(holders, tp.bs)
	}
	holders = append(holders, tp.mobile)
	if tp.chaos != nil {
		holders = append(holders, tp.chaos)
	}
	for _, h := range holders {
		h.ReleaseAll()
	}
	st := tp.pool.Stats()
	var err error
	if fault := tp.pool.Fault(); fault != nil {
		err = &sim.CheckError{Name: "packet-lifetime", At: tp.sim.Now(), Err: fault}
	}
	sim.Release(tp.sim)
	packet.ReleasePool(tp.pool)
	return st, err
}

// stallWindow resolves the watchdog window: explicit wins, negative
// disables, zero auto-arms at DefaultStall when checks or chaos are active
// (a fault plan can wedge a transfer by design).
func (c Config) stallWindow() time.Duration {
	switch {
	case c.Stall > 0:
		return c.Stall
	case c.Stall < 0:
		return 0
	case c.Checks || c.Chaos.Enabled():
		return DefaultStall
	default:
		return 0
	}
}

// topology is the assembled Figure 2 network, the only one there is: the
// bulk runner (Run, split mode included) and the page-fetch runner
// (RunWeb) run on it. It carries one TCP connection,
// the paper's: sender in the fixed host, sink in the mobile host.
type topology struct {
	sim    *sim.Simulator
	pool   *packet.Pool
	ids    *packet.IDGen
	sender *tcp.Sender
	sink   *tcp.Sink
	// bs is the base-station agent, nil in split mode, where relay takes
	// its place (see split.go).
	bs     *bs.BaseStation
	relay  *relay
	mobile *node.Mobile

	wiredFwd, wiredRev       *link.Link
	wirelessDown, wirelessUp *link.Link
	// channel is the wireless links' Markov channel, beneath any fault
	// overlay.
	channel *errmodel.Markov

	// arq is the resolved ARQ configuration (defaults applied), kept so
	// the conformance oracle can mirror the station's attempt cap.
	arq bs.ARQConfig

	chaos *chaos.Injector
}

// tapSender wires one sender's event stream to its consumers. There are
// two, and the two arguments — Config.CollectTrace and Config.Oracle —
// fully decide which are attached:
//
//   - store: a Trace that retains every event, returned (nil otherwise);
//   - check: a conformance checker under ocfg, which retains nothing. Its
//     first violation halts the run at that event through the
//     simulator's failure channel, exactly like a periodic invariant
//     check.
//
// Each event is written once, in place — the sender's by the sender
// itself, the base station's and mobile host's by the source's hook
// adapters — and numbered by the source, so a violation's index is the
// event's position in the stream whether or not the stream is stored.
// The source is returned for the caller to feed further instrumentation
// into the same stream; with neither consumer nothing is installed and
// it is nil.
func tapSender(s *sim.Simulator, snd *tcp.Sender, store, check bool, ocfg oracle.Config) (*trace.Source, *trace.Trace) {
	if !store && !check {
		return nil, nil
	}
	src := trace.NewSource(ocfg.MSS, s)
	var tr *trace.Trace
	if store {
		tr = src.Store()
	}
	if check {
		src.Check("oracle", oracle.New(ocfg))
	}
	snd.SetStateHook(src.OnState)
	return src, tr
}

// tap wires the topology's event stream (see tapSender): the stream is
// stored when store is set and checked when cfg.Oracle is. The checker
// also needs the base station's ARQ, notification and snoop events and
// the mobile host's sequenced deliveries, so arming it feeds those into
// the same stream.
//
// In split mode each half is an independent TCP connection with its own
// stream, so each gets its own checker under the run's variant profile,
// at its own MSS. Neither half uses link-level recovery or notifications,
// so those rule families stay quiet (RTmax 0, no notification
// bookkeeping). The stored stream is the wireless half's — the
// connection the paper's figures observe.
func (tp *topology) tap(cfg Config, store bool) *trace.Trace {
	if r := tp.relay; r != nil {
		ocfg := oracle.Config{Variant: cfg.Variant, MSS: r.mss, Window: cfg.Window}
		_, tr := tapSender(tp.sim, r.sender, store, cfg.Oracle, ocfg)
		ocfg.MSS = cfg.MSS()
		tapSender(tp.sim, tp.sender, false, cfg.Oracle, ocfg)
		return tr
	}
	src, tr := tapSender(tp.sim, tp.sender, store, cfg.Oracle, oracle.Config{
		Variant:      cfg.Variant,
		MSS:          cfg.MSS(),
		Window:       cfg.Window,
		RTmax:        tp.arq.RTmax,
		SnoopMaxRetx: bs.SnoopMaxRetx,
		// The run has a single connection, so notification counting is
		// exact: every EBSN reset at the source must be backed by an
		// emitted notification, and every notification by a link failure.
		TrackNotifications: true,
	})
	if cfg.Oracle {
		tp.bs.SetHooks(src.BSHooks())
		tp.mobile.SetSequencedHook(src.MobileHook())
	}
	return tr
}

// result assembles the standard measurement record.
func (tp *topology) result(cfg Config) *Result {
	res := &Result{
		Config:       cfg,
		Completed:    tp.sender.Done(),
		Events:       tp.sim.Fired(),
		Kernel:       tp.sim.Stats(),
		Sender:       tp.sender.Stats(),
		Sink:         tp.sink.Stats(),
		Mobile:       tp.mobile.Stats(),
		WirelessDown: tp.wirelessDown.Stats(),
		WirelessUp:   tp.wirelessUp.Stats(),
	}
	if tp.chaos != nil {
		st := tp.chaos.Stats()
		res.Chaos = &st
	}
	if tp.relay != nil {
		tp.summarizeSplit(res)
		return res
	}
	res.BS = tp.bs.Stats()
	res.SnoopCacheLen = tp.bs.SnoopCacheLen()
	elapsed := tp.sender.FinishedAt()
	if !res.Completed {
		elapsed = tp.sim.Now()
	}
	res.Summary = metrics.Summarize(cfg.TransferSize, cfg.MSS(), res.Sender, elapsed)
	return res
}

// newTopology wires the FH-BS-MH network and its one TCP connection.
// Construction order fixes the order the run's RNG is split in; the
// connection draws no randomness of its own. streaming opens the sender
// with no data (workloads grant bytes as produced). The split-connection
// scheme puts a relay where the base-station agent would be (see
// split.go); it carries one bulk transfer, and the streaming runners
// refuse it by name.
func newTopology(cfg Config, streaming bool) (*topology, error) {
	split := cfg.Scheme == bs.SplitConnection
	// Acquire from the kernel and packet pools so replication sweeps
	// reuse the event heap slab, its free list, and the recycled packets
	// instead of regrowing them per run. Runners release both when they
	// finish (see topology.release). The delivery closures reach agents
	// wired after them through tp.
	s, pool := sim.Acquire(), packet.AcquirePool()
	s.SetBudget(cfg.Budget)
	tp := &topology{sim: s, pool: pool, ids: packet.NewIDGen(pool)}
	rng := sim.NewRNG(cfg.Seed)

	// The chaos RNG splits off first — and only when a fault plan is
	// active — so every non-chaos run keeps exactly the draw sequences it
	// had before fault injection existed.
	var chaosRNG *sim.RNG
	if cfg.Chaos.Enabled() {
		chaosRNG = rng.Split()
	}

	var err error
	if tp.channel, err = errmodel.NewMarkov(cfg.Channel, rng.Split()); err != nil {
		return nil, err
	}
	var channel, upChannel errmodel.Channel = tp.channel, tp.channel
	// Blackout windows ride the links' error channels as forced-BER
	// overlays; outside the windows the overlay adds no randomness draws,
	// so in-run behaviour away from the faults is unperturbed.
	if channel, err = cfg.Chaos.OverlayChannel(chaos.WirelessDown, channel); err != nil {
		return nil, err
	}
	if upChannel, err = cfg.Chaos.OverlayChannel(chaos.WirelessUp, upChannel); err != nil {
		return nil, err
	}

	// Links. Queue limits: the wired hop models a router queue; the
	// wireless queues are managed by the base station itself (ARQ window
	// or plain FIFO), so they stay unbounded here.
	var red *queue.REDConfig
	var wiredRNG *sim.RNG
	if cfg.ECN {
		// RED on the wired router queue: thresholds at 20%/70% of the
		// 50-packet buffer, classic 10% ceiling probability. The weight
		// is coarse because arrivals are slow at 56 kbps.
		red = &queue.REDConfig{MinThreshold: 10, MaxThreshold: 35, MaxP: 0.1, Weight: 0.2}
		wiredRNG = rng.Split()
	}
	// A wired hop is error-free unless a blackout targets it, in which
	// case it gets a nil-based overlay channel (and an RNG to drive the
	// corruption draws inside the windows).
	var wiredFwdCh errmodel.Channel
	if cfg.Chaos.NeedsChannel(chaos.WiredFwd) {
		if wiredFwdCh, err = cfg.Chaos.OverlayChannel(chaos.WiredFwd, nil); err != nil {
			return nil, err
		}
		if wiredRNG == nil {
			wiredRNG = rng.Split()
		}
	}
	tp.wiredFwd, err = link.New(s, link.Config{
		Name: "wired-fwd", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
		RED: red, Channel: wiredFwdCh,
	}, wiredRNG, func(p *packet.Packet) {
		switch {
		case p.Conn == crossConn:
			p.Release() // background traffic exits at the base station
		case tp.relay != nil:
			tp.relay.receive(p)
		default:
			tp.bs.FromWired(p)
		}
	})
	if err != nil {
		return nil, err
	}
	if cfg.CrossTraffic.enabled() {
		startCrossTraffic(s, cfg.CrossTraffic, tp.ids, rng.Split(), tp.wiredFwd, cfg.Horizon)
	}
	var wiredRevCh errmodel.Channel
	var wiredRevRNG *sim.RNG
	if cfg.Chaos.NeedsChannel(chaos.WiredRev) {
		if wiredRevCh, err = cfg.Chaos.OverlayChannel(chaos.WiredRev, nil); err != nil {
			return nil, err
		}
		wiredRevRNG = rng.Split()
	}
	tp.wiredRev, err = link.New(s, link.Config{
		Name: "wired-rev", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
		Channel: wiredRevCh,
	}, wiredRevRNG, func(p *packet.Packet) { tp.sender.Receive(p) })
	if err != nil {
		return nil, err
	}
	tp.wirelessDown, err = link.New(s, link.Config{
		Name: "wireless-down", Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		Overhead: cfg.WirelessOverhead, Channel: channel,
	}, rng.Split(), func(p *packet.Packet) { tp.mobile.Receive(p) })
	if err != nil {
		return nil, err
	}
	tp.wirelessUp, err = link.New(s, link.Config{
		Name: "wireless-up", Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		Overhead: cfg.WirelessOverhead, Channel: upChannel,
	}, rng.Split(), func(p *packet.Packet) {
		if tp.relay != nil {
			tp.relay.sender.Receive(p)
			return
		}
		tp.bs.FromWireless(p)
	})
	if err != nil {
		return nil, err
	}

	// Base station. ARQ defaults are resolved here so the mobile host's
	// reorder timer can be sized from the same values.
	tp.arq = cfg.ARQ.WithDefaults()
	if !split {
		tp.bs, err = bs.New(s, bs.Config{
			Scheme:      cfg.Scheme,
			MTU:         cfg.MTU,
			ARQ:         tp.arq,
			NotifyEvery: cfg.NotifyEvery,
			QueueLimit:  50,
		}, tp.ids, rng.Split(), tp.wirelessDown, func(p *packet.Packet) { tp.wiredRev.Send(p) })
		if err != nil {
			return nil, err
		}
	}

	// Mobile host: reassembly + link acks; the sink sits behind it.
	tp.mobile, err = node.NewMobileDeliver(s, node.MobileConfig{
		LinkAcks:       cfg.Scheme.UsesLinkAcks(),
		ReorderTimeout: deriveReorderTimeout(bs.AckDeadline(tp.wirelessDown) + tp.arq.BackoffMax),
	}, tp.ids, func(p *packet.Packet) { tp.sink.Receive(p) },
		func(p *packet.Packet) { tp.wirelessUp.Send(p) })
	if err != nil {
		return nil, err
	}

	// The connection: a sink in the mobile host, a TCP source in the fixed
	// host.
	newSink := func(out func(*packet.Packet)) (*tcp.Sink, error) {
		sink, err := tcp.NewSink(s, cfg.Window, tp.ids, out)
		if err != nil {
			return nil, err
		}
		if cfg.DelayedAcks {
			sink.EnableDelayedAcks(0)
		}
		if cfg.SACK || cfg.Variant.Scoreboard() {
			sink.EnableSACK()
		}
		return sink, nil
	}
	if tp.sink, err = newSink(func(p *packet.Packet) { tp.wirelessUp.Send(p) }); err != nil {
		return nil, err
	}
	if tp.sender, err = tcp.NewSender(s, cfg.senderConfig(cfg.MSS(), streaming), tp.ids,
		func(p *packet.Packet) { tp.wiredFwd.Send(p) }); err != nil {
		return nil, err
	}

	if split {
		// The wired connection ends in the relay's sink; the relay's
		// sender carries it on over the radio.
		tp.relay = &relay{mss: cfg.splitMSS()}
		if tp.relay.sink, err = newSink(func(p *packet.Packet) { tp.wiredRev.Send(p) }); err != nil {
			return nil, err
		}
		if tp.relay.sender, err = tcp.NewSender(s, cfg.senderConfig(tp.relay.mss, true), tp.ids,
			func(p *packet.Packet) { tp.wirelessDown.Send(p) }); err != nil {
			return nil, err
		}
	}

	if chaosRNG != nil {
		tp.chaos, err = chaos.New(s, cfg.Chaos, chaosRNG)
		if err != nil {
			return nil, err
		}
		for _, l := range tp.links() {
			tp.chaos.Attach(l)
		}
		tp.chaos.ScheduleCrashes(tp.bs)
		tp.chaos.ScheduleHandoffs(tp.bs, tp.dupAcks)
		tp.chaos.ScheduleEventStorms()
	}
	return tp, nil
}

// dupAcks is the mobile host's nudge after a handoff: the sink sends its
// source tcp.DupAckThreshold duplicate ACKs, enough for a fast retransmit.
func (tp *topology) dupAcks() {
	for i := 0; i < tcp.DupAckThreshold; i++ {
		tp.sink.DupAck()
	}
}

// senderConfig is the TCP source configuration of a run's connection and
// of the split relay's; the segment size and who produces the bytes are
// all that differ.
func (c Config) senderConfig(mss units.ByteSize, streaming bool) tcp.Config {
	return tcp.Config{
		MSS:       mss,
		Window:    c.Window,
		Total:     c.TransferSize,
		Variant:   c.Variant,
		SACK:      c.SACK,
		Streaming: streaming,
	}
}

// links lists the four hops in the order checks and snapshots name them.
func (tp *topology) links() [4]*link.Link {
	return [4]*link.Link{tp.wiredFwd, tp.wiredRev, tp.wirelessDown, tp.wirelessUp}
}

// startCrossTraffic schedules a Poisson packet stream into the wired
// forward link until the horizon. Tail drops of cross-traffic packets are
// part of the model (a congested queue drops whoever arrives late).
func startCrossTraffic(s *sim.Simulator, ct CrossTraffic, ids *packet.IDGen, rng *sim.RNG, l *link.Link, horizon time.Duration) {
	meanGap := float64(units.TransmissionTime(crossPacketSize, ct.Rate))
	var next func()
	next = func() {
		if s.Now() >= horizon {
			return
		}
		p := ids.New(packet.Data)
		p.Conn = crossConn
		p.Payload = crossPacketSize - packet.HeaderSize
		p.SentAt = s.Now()
		l.Send(p)
		s.Schedule(time.Duration(rng.Exp(meanGap)), next)
	}
	s.Schedule(time.Duration(rng.Exp(meanGap)), next)
}

// deriveReorderTimeout sizes the mobile host's gap-flush timer to three
// full ARQ retry cycles (link-ack deadline plus maximum backoff), within
// [500 ms, 3 s]: shorter would flush gaps the ARQ is about to fill; much
// longer only delays recovery of a discarded packet.
func deriveReorderTimeout(cycle time.Duration) time.Duration {
	return min(max(3*cycle, 500*time.Millisecond), 3*time.Second)
}
