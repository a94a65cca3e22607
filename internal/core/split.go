package core

import (
	"context"

	"wtcp/internal/errmodel"
	"wtcp/internal/link"
	"wtcp/internal/metrics"
	"wtcp/internal/node"
	"wtcp/internal/oracle"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
)

// runSplit executes the split-connection (I-TCP) baseline: the end-to-end
// connection is terminated at the base station and re-originated as an
// independent TCP over the wireless hop.
//
//	FH  ──wired TCP──▶  BS sink ─┐
//	FH  ◀────acks───────┘        │ relay (per-connection state!)
//	                             ▼
//	           BS wireless TCP sender ──▶ MH sink
//
// Two properties the paper criticizes are directly observable in the
// Result: the fixed host's connection completes before the mobile host
// has the data (acknowledgments no longer mean end-to-end delivery), and
// the base station holds per-connection transport state (the relay).
//
// The wireless-side connection uses segments that fit the wireless MTU,
// so no fragmentation occurs on the radio — the I-TCP argument for
// separating the two flow controls.
func runSplit(ctx context.Context, cfg Config) (*Result, error) {
	s := sim.Acquire()
	s.SetBudget(cfg.Budget)
	s.Bind(ctx)
	pool := packet.AcquirePool()
	ids := packet.NewIDGen(pool)
	rng := sim.NewRNG(cfg.Seed)

	channel, err := errmodel.NewMarkov(cfg.Channel, rng.Split())
	if err != nil {
		return nil, err
	}

	var (
		fhSender *tcp.Sender
		wsSender *tcp.Sender
		bsSink   *tcp.Sink
		mobile   *node.Mobile
	)

	// Wireless-side segment size: fit the MTU when fragmentation would
	// otherwise occur.
	wirelessPacket := cfg.PacketSize
	if cfg.MTU > 0 && wirelessPacket > cfg.MTU {
		wirelessPacket = cfg.MTU
	}

	wiredFwd, err := link.New(s, link.Config{
		Name: "wired-fwd", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
	}, nil, func(p *packet.Packet) {
		before := bsSink.Delivered()
		bsSink.Receive(p)
		if d := bsSink.Delivered() - before; d > 0 {
			wsSender.MakeAvailable(d)
		}
	})
	if err != nil {
		return nil, err
	}
	wiredRev, err := link.New(s, link.Config{
		Name: "wired-rev", Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
	}, nil, func(p *packet.Packet) { fhSender.Receive(p) })
	if err != nil {
		return nil, err
	}
	wirelessDown, err := link.New(s, link.Config{
		Name: "wireless-down", Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		Overhead: cfg.WirelessOverhead, Channel: channel,
	}, rng.Split(), func(p *packet.Packet) { mobile.Receive(p) })
	if err != nil {
		return nil, err
	}
	wirelessUp, err := link.New(s, link.Config{
		Name: "wireless-up", Rate: cfg.WirelessRate, Delay: cfg.WirelessDelay,
		Overhead: cfg.WirelessOverhead, Channel: channel,
	}, rng.Split(), func(p *packet.Packet) { wsSender.Receive(p) })
	if err != nil {
		return nil, err
	}

	// Wired half: FH sender -> BS sink.
	bsSink, err = tcp.NewSink(s, cfg.Window, ids, func(p *packet.Packet) { wiredRev.Send(p) })
	if err != nil {
		return nil, err
	}
	fhSender, err = tcp.NewSender(s, cfg.senderConfig(cfg.MSS(), false), ids, func(p *packet.Packet) { wiredFwd.Send(p) })
	if err != nil {
		return nil, err
	}

	// Wireless half: BS sender -> MH sink, fed by the relay.
	mhSink, err := tcp.NewSink(s, cfg.Window, ids, func(p *packet.Packet) { wirelessUp.Send(p) })
	if err != nil {
		return nil, err
	}
	mobile, err = node.NewMobile(s, node.MobileConfig{}, ids, mhSink, func(p *packet.Packet) { wirelessUp.Send(p) })
	if err != nil {
		return nil, err
	}
	wsSender, err = tcp.NewSender(s, cfg.senderConfig(wirelessPacket-PaperHeader, true), ids, func(p *packet.Packet) { wirelessDown.Send(p) })
	if err != nil {
		return nil, err
	}
	if cfg.SACK || cfg.Variant.Scoreboard() {
		bsSink.EnableSACK()
		mhSink.EnableSACK()
	}

	// Each half is an independent TCP connection with its own event
	// stream, so with the oracle armed each gets its own conformance
	// checker under the run's variant profile, at its own MSS. Neither
	// half uses link-level recovery or notifications, so those rule
	// families stay quiet (RTmax 0, no notification bookkeeping). The
	// collected trace follows the wireless half — the connection the
	// paper's figures observe.
	ocfg := oracle.Config{Variant: cfg.Variant, MSS: wirelessPacket - PaperHeader, Window: cfg.Window}
	_, tr, cw := tapSender(s, wsSender, cfg.CollectTrace, cfg.Oracle, ocfg)
	ocfg.MSS = cfg.MSS()
	tapSender(s, fhSender, false, cfg.Oracle, ocfg)

	if cfg.Checks {
		s.AddCheck("fh-sender-state", fhSender.CheckInvariants)
		s.AddCheck("ws-sender-state", wsSender.CheckInvariants)
		s.AddCheck("fh-snd-una-monotonic", sim.Monotonic("fh snd_una", fhSender.SndUna))
		s.AddCheck("ws-snd-una-monotonic", sim.Monotonic("ws snd_una", wsSender.SndUna))
		s.AddCheck("mh-within-sent", sim.Conservation("in-order mobile bytes vs highest byte sent",
			wsSender.SndMax, mhSink.RcvNxt))
		s.EnableChecks(cfg.CheckInterval)
	}
	if stall := cfg.stallWindow(); stall > 0 {
		// Progress means bytes acknowledged over the wireless half — the
		// connection whose completion ends the run.
		s.StartWatchdog(stall, wsSender.SndUna, nil)
	}

	fhSender.Start()
	wsSender.Start()
	stalled, err := stepUntil(s, cfg.Horizon, wsSender.Done)

	release := func() (packet.PoolStats, error) {
		return teardown(s, pool, wiredFwd, wiredRev, wirelessDown, wirelessUp, mobile)
	}
	if err != nil {
		release()
		return nil, err
	}

	res := &Result{
		Config:        cfg,
		Completed:     wsSender.Done(),
		Events:        s.Fired(),
		Kernel:        s.Stats(),
		Sender:        fhSender.Stats(),
		SplitWireless: statsPtr(wsSender.Stats()),
		Sink:          mhSink.Stats(),
		Mobile:        mobile.Stats(),
		WirelessDown:  wirelessDown.Stats(),
		WirelessUp:    wirelessUp.Stats(),
	}
	res.SplitWiredDone = fhSender.FinishedAt()
	res.Trace = tr
	res.Cwnd = cw
	if stalled != nil {
		res.Aborted = true
		res.AbortReason = stalled.Error()
	}
	elapsed := wsSender.FinishedAt()
	if !res.Completed {
		elapsed = s.Now()
	}
	// The wireless connection is the bottleneck and the paper's metrics
	// describe data arriving at the mobile host, so summarize that half;
	// retransmissions from both halves are combined so goodput reflects
	// total network effort.
	combined := wsSender.Stats()
	combined.BytesSent += fhSender.Stats().BytesSent
	combined.RetransBytes += fhSender.Stats().RetransBytes
	combined.Timeouts += fhSender.Stats().Timeouts
	res.Summary = metrics.Summarize(cfg.TransferSize, wirelessPacket-PaperHeader, combined, elapsed)
	// Goodput: count both halves' useful wire bytes against both halves'
	// transmissions.
	useful := metrics.WireBytes(cfg.TransferSize, cfg.MSS()) +
		metrics.WireBytes(cfg.TransferSize, wirelessPacket-PaperHeader)
	if combined.BytesSent > 0 {
		res.Summary.Goodput = float64(useful) / float64(combined.BytesSent)
		if res.Summary.Goodput > 1 {
			res.Summary.Goodput = 1
		}
	}
	if res.Packets, err = release(); err != nil {
		return nil, err
	}
	return res, nil
}

func statsPtr(s tcp.Stats) *tcp.Stats { return &s }
