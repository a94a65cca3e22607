// Package multiconn reproduces the Channel State Dependent Packet (CSDP)
// scheduling study the paper summarizes in §2 [Bhagwat et al., INFOCOM
// 95]: several TCP connections share one wireless LAN radio at the base
// station, each mobile host fading independently. Under plain FIFO
// service, a head-of-line packet whose receiver is in a fade blocks
// everyone; round-robin service isolates the blocked connection, and a
// channel-state-dependent scheduler (round-robin that skips
// predicted-bad receivers) does better still — bounded by the accuracy of
// the channel predictor, which the paper calls the approach's main
// limitation.
//
// The subsystem reuses the repository's TCP endpoints and error model and
// adds a shared-radio scheduler with per-connection queues and a
// stop-and-wait link ARQ (retransmission with packet discards, as in the
// original study).
package multiconn

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// Policy selects the base station's radio scheduling discipline.
type Policy int

// Policies.
const (
	// FIFO serves packets in arrival order; a fading head blocks all.
	FIFO Policy = iota + 1
	// RoundRobin cycles across connections' queues; a failed head only
	// costs its own connection's turn.
	RoundRobin
	// CSDP is round-robin that skips connections whose channel the
	// predictor marks bad.
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

// Config parameterizes a multi-connection run.
type Config struct {
	// Connections is the number of simultaneous TCP transfers.
	Connections int
	// Policy is the radio scheduling discipline.
	Policy Policy
	// TransferSize is moved per connection.
	TransferSize units.ByteSize
	// PacketSize is the segment size (header included); no fragmentation
	// (wireless LAN).
	PacketSize units.ByteSize
	// Window is each connection's advertised window.
	Window units.ByteSize
	// WiredRate/WiredDelay parameterize each connection's wired hop.
	WiredRate  units.BitRate
	WiredDelay time.Duration
	// WirelessRate/WirelessDelay parameterize the shared radio.
	WirelessRate  units.BitRate
	WirelessDelay time.Duration
	// Channel is the per-connection fading model; every connection gets
	// an independent instance (independent user fading is what makes the
	// scheduling policies differ).
	Channel errmodel.Config
	// PredictorAccuracy is the probability the CSDP predictor reports
	// the true channel state (1.0 = oracle). Ignored by other policies.
	PredictorAccuracy float64
	// EBSN composes the paper's contribution with the scheduler: after
	// every unsuccessful link attempt the base station notifies every
	// source whose data it is holding up (the failing connection and any
	// queued behind it), each of which re-arms its retransmission timer.
	// An extension beyond both original studies.
	EBSN bool
	// RTmax bounds link-level retransmissions per packet before discard.
	RTmax int
	// PerConnQueue bounds each connection's queue at the base station,
	// in packets.
	PerConnQueue int
	// Seed drives all randomness; Horizon caps the run.
	Seed    int64
	Horizon time.Duration
}

// LANDefaults returns a configuration mirroring the paper's LAN
// environment with n connections under the given policy.
func LANDefaults(n int, policy Policy, meanBad time.Duration) Config {
	return Config{
		Connections:       n,
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
		RTmax:             64,
		PerConnQueue:      20,
		Seed:              1,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.Connections <= 0:
		return errors.New("multiconn: need at least one connection")
	case c.Policy < FIFO || c.Policy > CSDP:
		return errors.New("multiconn: unknown policy")
	case c.PacketSize <= packet.HeaderSize:
		return errors.New("multiconn: packet size below header")
	case c.TransferSize <= 0:
		return errors.New("multiconn: nothing to transfer")
	case c.Window < c.PacketSize-packet.HeaderSize:
		return errors.New("multiconn: window below one segment")
	case c.WiredRate <= 0 || c.WirelessRate <= 0:
		return errors.New("multiconn: rates must be positive")
	case c.PredictorAccuracy < 0 || c.PredictorAccuracy > 1:
		return errors.New("multiconn: predictor accuracy outside [0,1]")
	default:
		return c.Channel.Validate()
	}
}

// ConnResult is one connection's outcome.
type ConnResult struct {
	Completed      bool
	Elapsed        time.Duration
	ThroughputKbps float64
	Timeouts       uint64
	RetransKB      float64
}

// Result is a whole run's outcome.
type Result struct {
	Config        Config
	Completed     bool // all connections finished
	PerConn       []ConnResult
	AggregateKbps float64
	// Fairness is Jain's index over per-connection throughputs: 1.0 is
	// perfectly fair, 1/n is maximally unfair.
	Fairness float64
	// Radio counters.
	RadioAttempts uint64
	RadioDiscards uint64
	SkippedBad    uint64 // CSDP: scheduling decisions that skipped a bad channel
	// EBSNsSent counts per-connection bad-state notifications.
	EBSNsSent uint64
	// TotalTimeouts aggregates source timeouts across connections.
	TotalTimeouts uint64
	// Events counts the engine micro-events the run processed.
	Events uint64
}

// Run executes one multi-connection simulation. Since the cell engine
// landed, Run is a thin adapter over internal/cell: the flat engine is a
// bit-identical port of the object-per-flow implementation this package
// used to carry (preserved in reference_test.go, where a differential
// test pins the equivalence), so Results are unchanged while large runs
// stop paying the object-graph overhead.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg, sim.Budget{})
}

// RunContext is Run with the cell engine's cooperative cancellation and
// resource budget (see cell.RunContext).
func RunContext(ctx context.Context, cfg Config, budget sim.Budget) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * time.Hour
	}
	if cfg.RTmax <= 0 {
		cfg.RTmax = 64
	}
	if cfg.PerConnQueue <= 0 {
		cfg.PerConnQueue = 20
	}

	cr, err := cell.RunContext(ctx, cell.Config{
		Flows:             cfg.Connections,
		BaseStations:      1,
		Policy:            cell.Policy(cfg.Policy),
		TransferSize:      cfg.TransferSize,
		PacketSize:        cfg.PacketSize,
		Window:            cfg.Window,
		WiredRate:         cfg.WiredRate,
		WiredDelay:        cfg.WiredDelay,
		WirelessRate:      cfg.WirelessRate,
		WirelessDelay:     cfg.WirelessDelay,
		Channel:           cfg.Channel,
		SharedChannel:     false, // every mobile fades independently
		PredictorAccuracy: cfg.PredictorAccuracy,
		EBSN:              cfg.EBSN,
		EBSNBroadcast:     true, // notify queued bystanders too
		RTmax:             cfg.RTmax,
		PerFlowQueue:      cfg.PerConnQueue,
		Seed:              cfg.Seed,
		Horizon:           cfg.Horizon,
	}, budget)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Config:        cfg,
		Completed:     cr.Completed,
		RadioAttempts: cr.RadioAttempts,
		RadioDiscards: cr.RadioDiscards,
		SkippedBad:    cr.SkippedBad,
		EBSNsSent:     cr.EBSNsSent,
		TotalTimeouts: cr.TotalTimeouts,
		AggregateKbps: cr.AggregateKbps,
		Fairness:      cr.Fairness,
		Events:        cr.Events,
	}
	for _, fr := range cr.Flows {
		res.PerConn = append(res.PerConn, ConnResult{
			Completed:      fr.Completed,
			Elapsed:        fr.Elapsed,
			ThroughputKbps: units.ThroughputKbps(cfg.TransferSize, fr.Elapsed),
			Timeouts:       fr.Timeouts,
			RetransKB:      float64(fr.RetransBytes) / float64(units.KB),
		})
	}
	return res, nil
}
