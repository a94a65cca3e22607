// Package handoff reproduces the mobility study the paper's related-work
// section opens with [Caceres & Iftode 94]: a mobile host moving between
// cells loses the packets queued at (and in flight to) its old base
// station, and plain TCP then sits out a — possibly backed-off —
// retransmission timeout before recovering. Their fix, reproduced here:
// immediately after completing a handoff the mobile host re-sends three
// duplicate acknowledgments, triggering fast retransmit at the source so
// recovery starts one round trip after reconnection instead of one RTO.
//
// The paper itself excludes handoffs (it defers them to a companion
// report); this package exists as the related-work baseline, built on the
// same simulator, TCP, and link substrates.
package handoff

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// Scheme selects the mobile host's post-handoff behaviour.
type Scheme int

// Schemes.
const (
	// Plain lets TCP discover the handoff losses by itself (timeout).
	Plain Scheme = iota + 1
	// FastRetransmit has the mobile host emit three duplicate acks right
	// after reconnecting, converting the timeout into a fast retransmit.
	FastRetransmit
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Plain:
		return "plain"
	case FastRetransmit:
		return "fastretransmit"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config parameterizes a handoff run. The wireless cells are error-free
// by default: like the original study, the point is to isolate mobility
// effects from corruption effects.
type Config struct {
	Scheme       Scheme
	TransferSize units.ByteSize
	PacketSize   units.ByteSize
	Window       units.ByteSize

	WiredRate     units.BitRate
	WiredDelay    time.Duration
	WirelessRate  units.BitRate
	WirelessDelay time.Duration

	// Dwell is how long the mobile host stays in a cell between
	// handoffs; Latency is the disconnection gap while switching.
	Dwell   time.Duration
	Latency time.Duration

	Granularity time.Duration
	InitialRTO  time.Duration

	Seed    int64
	Horizon time.Duration
}

// Defaults returns a WaveLAN-era configuration matching the original
// study's environment: 2 Mbps cells, 1 s dwell, 100 ms handoff gap.
func Defaults(scheme Scheme) Config {
	return Config{
		Scheme:        scheme,
		TransferSize:  units.MB,
		PacketSize:    1500,
		Window:        64 * units.KB,
		WiredRate:     10 * units.Mbps,
		WiredDelay:    time.Millisecond,
		WirelessRate:  2 * units.Mbps,
		WirelessDelay: time.Millisecond,
		Dwell:         time.Second,
		Latency:       100 * time.Millisecond,
		Seed:          1,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.Scheme < Plain || c.Scheme > FastRetransmit:
		return errors.New("handoff: unknown scheme")
	case c.PacketSize <= packet.HeaderSize:
		return errors.New("handoff: packet size below header")
	case c.TransferSize <= 0:
		return errors.New("handoff: nothing to transfer")
	case c.Window < c.PacketSize-packet.HeaderSize:
		return errors.New("handoff: window below one segment")
	case c.WiredRate <= 0 || c.WirelessRate <= 0:
		return errors.New("handoff: rates must be positive")
	case c.Dwell <= 0:
		return errors.New("handoff: dwell must be positive")
	case c.Latency < 0:
		return errors.New("handoff: negative latency")
	default:
		return nil
	}
}

// Result is a run's outcome.
type Result struct {
	Config          Config
	Completed       bool
	Elapsed         time.Duration
	ThroughputKbps  float64
	Timeouts        uint64
	FastRetransmits uint64
	Handoffs        int
	// DroppedAtHandoff counts packets lost to cell switches (queued at
	// the old base station or in flight during the gap).
	DroppedAtHandoff uint64
	// RetransKB is the source's retransmitted volume.
	RetransKB float64
	// Events counts the kernel events the run fired.
	Events uint64
}

// Run executes one handoff simulation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg, sim.Budget{})
}

// RunContext is Run under ctx (the error unwraps to ctx.Err() once it
// ends) and a resource budget (exhaustion is a *sim.BudgetError; the zero
// budget imposes no ceilings).
func RunContext(ctx context.Context, cfg Config, budget sim.Budget) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Hour
	}

	s := sim.New()
	s.SetBudget(budget)
	s.Bind(ctx)
	ids := &packet.IDGen{}

	st := &state{sim: s, cfg: cfg, ids: ids}

	var err error
	// Two cells; the mobile host alternates between them.
	for i := 0; i < 2; i++ {
		i := i
		st.down[i], err = link.New(s, link.Config{
			Name: fmt.Sprintf("cell%d-down", i), Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		}, nil, func(p *packet.Packet) { st.mhReceive(i, p) })
		if err != nil {
			return nil, err
		}
		st.up[i], err = link.New(s, link.Config{
			Name: fmt.Sprintf("cell%d-up", i), Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		}, nil, func(p *packet.Packet) { st.bsUplink(i, p) })
		if err != nil {
			return nil, err
		}
	}
	st.wiredFwd, err = link.New(s, link.Config{
		Name: "wired-fwd", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 100,
	}, nil, st.route)
	if err != nil {
		return nil, err
	}
	st.wiredRev, err = link.New(s, link.Config{
		Name: "wired-rev", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 100,
	}, nil, func(p *packet.Packet) { st.sender.Receive(p) })
	if err != nil {
		return nil, err
	}

	st.sink, err = tcp.NewSink(s, cfg.Window, ids, st.mhSend)
	if err != nil {
		return nil, err
	}
	st.sender, err = tcp.NewSender(s, tcp.Config{
		MSS:         cfg.PacketSize - packet.HeaderSize,
		Window:      cfg.Window,
		Total:       cfg.TransferSize,
		Granularity: cfg.Granularity,
		InitialRTO:  cfg.InitialRTO,
	}, ids, func(p *packet.Packet) { st.wiredFwd.Send(p) })
	if err != nil {
		return nil, err
	}

	st.scheduleNextHandoff()
	st.sender.Start()
	for !st.sender.Done() && s.Now() < cfg.Horizon {
		if ok, err := s.Step(); !ok || err != nil {
			break
		}
	}
	if err := s.Failure(); err != nil {
		return nil, err
	}

	senderStats := st.sender.Stats()
	res := &Result{
		Config:           cfg,
		Completed:        st.sender.Done(),
		Timeouts:         senderStats.Timeouts,
		FastRetransmits:  senderStats.FastRetransmits,
		Handoffs:         st.handoffs,
		DroppedAtHandoff: st.dropped,
		RetransKB:        float64(senderStats.RetransBytes) / float64(units.KB),
		Events:           s.Fired(),
	}
	res.Elapsed = st.sender.FinishedAt()
	if !res.Completed {
		res.Elapsed = s.Now()
	}
	res.ThroughputKbps = units.ThroughputKbps(cfg.TransferSize, res.Elapsed)
	return res, nil
}

// state is the mutable topology: which cell the mobile host occupies and
// whether it is mid-handoff.
type state struct {
	sim *sim.Simulator
	cfg Config
	ids *packet.IDGen

	down     [2]*link.Link
	up       [2]*link.Link
	wiredFwd *link.Link
	wiredRev *link.Link

	sender *tcp.Sender
	sink   *tcp.Sink

	cell         int  // current cell (0/1)
	disconnected bool // inside the handoff gap

	handoffs int
	dropped  uint64
}

// route delivers a wired packet to the mobile host's current cell; during
// the handoff gap (and for packets chasing the old cell) it is lost.
func (st *state) route(p *packet.Packet) {
	if st.disconnected {
		st.drop(p)
		return
	}
	st.down[st.cell].Send(p)
}

// mhReceive is a cell's downlink delivery: only the attached cell reaches
// the mobile host.
func (st *state) mhReceive(cell int, p *packet.Packet) {
	if st.disconnected || cell != st.cell {
		st.drop(p)
		return
	}
	st.sink.Receive(p)
}

// mhSend carries mobile-host output over the current cell's uplink.
func (st *state) mhSend(p *packet.Packet) {
	if st.disconnected {
		st.drop(p)
		return
	}
	st.up[st.cell].Send(p)
}

// bsUplink forwards uplink arrivals onto the wire; stragglers into a
// detached cell die.
func (st *state) bsUplink(cell int, p *packet.Packet) {
	if cell != st.cell {
		st.drop(p)
		return
	}
	st.wiredRev.Send(p)
}

// drop counts a packet lost to a cell switch and gives up its reference.
func (st *state) drop(p *packet.Packet) {
	st.dropped++
	p.Release()
}

// scheduleNextHandoff arms the next cell switch.
func (st *state) scheduleNextHandoff() {
	st.sim.Schedule(st.cfg.Dwell, st.beginHandoff)
}

// beginHandoff detaches the mobile host: everything queued for the old
// cell is lost.
func (st *state) beginHandoff() {
	if st.sender.Done() {
		return
	}
	st.disconnected = true
	st.handoffs++
	// Packets already queued at the old cell's downlink die with the
	// attachment (they were addressed to a receiver that left).
	st.dropped += uint64(st.down[st.cell].DropQueued())
	st.sim.Schedule(st.cfg.Latency, st.completeHandoff)
}

// completeHandoff attaches to the new cell and, per the fast-retransmit
// scheme, nudges the source with three duplicate acks.
func (st *state) completeHandoff() {
	st.cell = 1 - st.cell
	st.disconnected = false
	if st.cfg.Scheme == FastRetransmit {
		for i := 0; i < tcp.DupAckThreshold; i++ {
			ack := st.ids.New(packet.Ack)
			ack.AckNo = st.sink.RcvNxt()
			ack.SentAt = st.sim.Now()
			st.up[st.cell].Send(ack)
		}
	}
	st.scheduleNextHandoff()
}
