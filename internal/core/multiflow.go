package core

import (
	"errors"
	"fmt"

	"wtcp/internal/bs"
	"wtcp/internal/errmodel"
	"wtcp/internal/link"
	"wtcp/internal/node"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// MultiFlowConfig runs several simultaneous transfers through the single
// FH—BS—MH path of the paper's topology (all flows share the wired link,
// the base station, and the radio — unlike internal/multiconn, where each
// mobile fades independently behind a scheduler).
//
// The interesting question it answers: does EBSN still work with several
// sources? It does, and still without per-connection state — the failing
// unit's own header names the source to notify.
type MultiFlowConfig struct {
	// Base supplies every per-flow parameter (scheme, packet size,
	// channel, transfer size...). Snoop and SplitConnection are not
	// supported here (both are inherently single-connection designs in
	// this repository).
	Base Config
	// Flows is the number of simultaneous transfers.
	Flows int
}

// FlowResult is one flow's outcome.
type FlowResult struct {
	Completed      bool
	ElapsedSec     float64
	ThroughputKbps float64
	Timeouts       uint64
	EBSNResets     uint64
}

// MultiFlowResult aggregates a run.
type MultiFlowResult struct {
	Completed     bool
	PerFlow       []FlowResult
	AggregateKbps float64
	// Fairness is Jain's index across flow throughputs.
	Fairness float64
	BS       bs.Stats
}

// RunMultiFlow executes the scenario.
func RunMultiFlow(cfg MultiFlowConfig) (*MultiFlowResult, error) {
	if cfg.Flows <= 0 {
		return nil, errors.New("core: need at least one flow")
	}
	if cfg.Base.Scheme == bs.Snoop || cfg.Base.Scheme == bs.SplitConnection {
		return nil, fmt.Errorf("core: multi-flow does not support the %v scheme", cfg.Base.Scheme)
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, err
	}
	base := cfg.Base
	if base.Horizon <= 0 {
		base.Horizon = DefaultHorizon
	}

	s := sim.Acquire()
	pool := packet.AcquirePool()
	ids := packet.NewIDGen(pool)
	rng := sim.NewRNG(base.Seed)
	channel, err := errmodel.NewMarkov(base.Channel, rng.Split())
	if err != nil {
		return nil, err
	}

	var (
		station *bs.BaseStation
		mobile  *node.Mobile
		senders []*tcp.Sender
		sinks   []*tcp.Sink
	)

	wiredFwd, err := link.New(s, link.Config{
		Name: "wired-fwd", Rate: base.WiredRate, Delay: base.WiredDelay, QueueLimit: 50,
	}, nil, func(p *packet.Packet) { station.FromWired(p) })
	if err != nil {
		return nil, err
	}
	wiredRev, err := link.New(s, link.Config{
		Name: "wired-rev", Rate: base.WiredRate, Delay: base.WiredDelay, QueueLimit: 50,
	}, nil, func(p *packet.Packet) {
		if p.Conn >= 0 && p.Conn < len(senders) {
			senders[p.Conn].Receive(p)
		} else {
			p.Release()
		}
	})
	if err != nil {
		return nil, err
	}
	wirelessDown, err := link.New(s, link.Config{
		Name: "wireless-down", Rate: base.WirelessRate, Delay: base.WirelessDelay,
		Overhead: base.WirelessOverhead, Channel: channel,
	}, rng.Split(), func(p *packet.Packet) { mobile.Receive(p) })
	if err != nil {
		return nil, err
	}
	wirelessUp, err := link.New(s, link.Config{
		Name: "wireless-up", Rate: base.WirelessRate, Delay: base.WirelessDelay,
		Overhead: base.WirelessOverhead, Channel: channel,
	}, rng.Split(), func(p *packet.Packet) { station.FromWireless(p) })
	if err != nil {
		return nil, err
	}

	arqCfg := base.ARQ
	if arqCfg.AckTimeout <= 0 {
		arqCfg.AckTimeout = deriveAckTimeout(wirelessDown, wirelessUp)
	}
	arqCfg = arqCfg.WithDefaults()
	station, err = bs.New(s, bs.Config{
		Scheme:      base.Scheme,
		MTU:         base.MTU,
		ARQ:         arqCfg,
		Snoop:       base.Snoop,
		NotifyEvery: base.NotifyEvery,
		// The hold queue is shared: scale it with the flow count so the
		// admission pressure per flow matches the single-flow setup.
		QueueLimit: 50 * cfg.Flows,
	}, ids, rng.Split(), wirelessDown, func(p *packet.Packet) { wiredRev.Send(p) })
	if err != nil {
		return nil, err
	}

	// One mobile host; reassembled traffic dispatches to per-flow sinks.
	mobile, err = node.NewMobileDeliver(s, node.MobileConfig{
		LinkAcks:       base.Scheme.UsesLinkAcks(),
		ReorderTimeout: deriveReorderTimeout(arqCfg),
	}, ids, func(p *packet.Packet) {
		if p.Conn >= 0 && p.Conn < len(sinks) {
			sinks[p.Conn].Receive(p)
		} else {
			p.Release()
		}
	}, func(p *packet.Packet) { wirelessUp.Send(p) })
	if err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Flows; i++ {
		i := i
		sink, err := tcp.NewSink(s, base.Window, ids, func(p *packet.Packet) {
			p.Conn = i
			wirelessUp.Send(p)
		})
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, sink)
		sender, err := tcp.NewSender(s, tcp.Config{
			MSS:         base.MSS(),
			Window:      base.Window,
			Total:       base.TransferSize,
			Granularity: base.Granularity,
			InitialRTO:  base.InitialRTO,
			Variant:     base.Variant,
			SACK:        base.SACK,
		}, ids, func(p *packet.Packet) {
			p.Conn = i
			wiredFwd.Send(p)
		})
		if err != nil {
			return nil, err
		}
		senders = append(senders, sender)
	}

	for _, snd := range senders {
		snd.Start()
	}
	allDone := func() bool {
		for _, snd := range senders {
			if !snd.Done() {
				return false
			}
		}
		return true
	}
	for !allDone() && s.Now() < base.Horizon {
		if ok, err := s.Step(); !ok || err != nil {
			break
		}
	}

	res := &MultiFlowResult{Completed: allDone(), BS: station.Stats()}
	var sum, sumSq float64
	for i, snd := range senders {
		elapsed := snd.FinishedAt()
		if !snd.Done() {
			elapsed = s.Now()
		}
		tput := units.ThroughputKbps(base.TransferSize, elapsed)
		st := snd.Stats()
		res.PerFlow = append(res.PerFlow, FlowResult{
			Completed:      snd.Done(),
			ElapsedSec:     elapsed.Seconds(),
			ThroughputKbps: tput,
			Timeouts:       st.Timeouts,
			EBSNResets:     st.EBSNResets,
		})
		res.AggregateKbps += tput
		sum += tput
		sumSq += tput * tput
		_ = i
	}
	if n := float64(cfg.Flows); sumSq > 0 {
		res.Fairness = sum * sum / (n * sumSq)
	}
	if _, err := teardown(s, pool, wiredFwd, wiredRev, wirelessDown, wirelessUp, station, mobile); err != nil {
		return nil, err
	}
	return res, nil
}
