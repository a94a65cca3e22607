package core

import (
	"context"
	"errors"
	"fmt"

	"wtcp/internal/bs"
	"wtcp/internal/units"
)

// MultiFlowConfig runs several simultaneous transfers through the single
// FH—BS—MH path of the paper's topology (all flows share the wired link,
// the base station, and the radio — unlike the CSDP study's cell.LAN
// configuration, where each mobile fades independently behind a
// scheduler).
//
// The interesting question it answers: does EBSN still work with several
// sources? It does, and still without per-connection state — the failing
// unit's own header names the source to notify.
type MultiFlowConfig struct {
	// Base describes the network and each flow's connection exactly as it
	// does for Run (one builder wires both). Refused by name: the Snoop and
	// SplitConnection schemes (per-connection base-station state here),
	// CollectTrace (the result carries no trace) and, with several flows,
	// Oracle and Checks (their accounting and invariants are per connection).
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

// RunMultiFlow executes the scenario. Every failure the simulator latches,
// the watchdog's abort included, is the error: a MultiFlowResult is only
// shaped from a run that ended on its own.
func RunMultiFlow(cfg MultiFlowConfig) (*MultiFlowResult, error) {
	base := cfg.Base
	switch {
	case cfg.Flows <= 0:
		return nil, errors.New("core: need at least one flow")
	case base.Scheme == bs.Snoop || base.Scheme == bs.SplitConnection:
		return nil, fmt.Errorf("core: multi-flow does not support the %v scheme", base.Scheme)
	case base.CollectTrace:
		return nil, errors.New("core: multi-flow does not support Base.CollectTrace: its result carries no trace")
	case base.Oracle && cfg.Flows > 1:
		return nil, errors.New("core: multi-flow does not support Base.Oracle with more than one flow: notification accounting is per connection")
	case base.Checks && cfg.Flows > 1:
		return nil, errors.New("core: multi-flow does not support Base.Checks with more than one flow: the end-to-end invariants are per connection")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if base.Horizon <= 0 {
		base.Horizon = DefaultHorizon
	}

	tp, err := newTopology(base, cfg.Flows, false)
	if err != nil {
		return nil, err
	}
	tp.tap(base, false)
	if err := orStall(tp.run(context.TODO(), base, tp.allDone)); err != nil {
		tp.release()
		return nil, err
	}

	res := &MultiFlowResult{Completed: tp.allDone(), BS: tp.bs.Stats()}
	var sumSq float64
	for _, snd := range tp.senders {
		elapsed := snd.FinishedAt()
		if !snd.Done() {
			elapsed = tp.sim.Now()
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
		sumSq += tput * tput
	}
	if n := float64(cfg.Flows); sumSq > 0 {
		res.Fairness = res.AggregateKbps * res.AggregateKbps / (n * sumSq)
	}
	if _, err := tp.release(); err != nil {
		return nil, err
	}
	return res, nil
}
