package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// cellOptions carries the -cell* flags into the cell-scale runner.
type cellOptions struct {
	flows   int
	policy  string
	bad     time.Duration
	horizon time.Duration
	oracle  int
	seed    int64
	jsonOut bool
	budget  sim.Budget
}

// runCellMode executes one cell-scale simulation (wtcp-sim -cell N): the
// flat struct-of-arrays engine simulating N concurrent flows across
// sharded base stations, scenario presets at 1k/10k/50k and anywhere in
// between.
func runCellMode(opt cellOptions) error {
	cfg := cell.Preset(opt.flows)
	switch opt.policy {
	case "", "roundrobin":
		cfg.Policy = cell.RoundRobin
	case "fifo":
		cfg.Policy = cell.FIFO
	case "csdp":
		cfg.Policy = cell.CSDP
	default:
		return fmt.Errorf("unknown cell policy %q (fifo|roundrobin|csdp)", opt.policy)
	}
	if opt.bad > 0 {
		cfg.Channel.MeanBad = opt.bad
	}
	if opt.horizon > 0 {
		cfg.Horizon = opt.horizon
	}
	cfg.OracleSample = opt.oracle
	cfg.Seed = opt.seed

	start := time.Now()
	res, err := core.RunCell(context.Background(), core.CellConfig{Config: cfg, Budget: opt.budget})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if opt.jsonOut {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"flows":           cfg.Flows,
			"base_stations":   cfg.BaseStations,
			"policy":          cfg.Policy.String(),
			"completed_flows": res.CompletedFlows,
			"aggregate_kbps":  res.AggregateKbps,
			"fairness":        res.Fairness,
			"radio_attempts":  res.RadioAttempts,
			"radio_discards":  res.RadioDiscards,
			"ebsns_sent":      res.EBSNsSent,
			"timeouts":        res.TotalTimeouts,
			"queue_drops":     res.QueueDrops,
			"events":          res.Events,
			"events_per_sec":  float64(res.Events) / wall.Seconds(),
			"wall_ms":         wall.Milliseconds(),
			"arena_peak":      res.Arena.PeakLive,
			"calendar_peak":   res.CalendarPeak,
		})
	}
	fmt.Printf("cell: %d flows on %d base stations, %s scheduling, bad=%v\n",
		cfg.Flows, cfg.BaseStations, cfg.Policy, cfg.Channel.MeanBad)
	fmt.Printf("completed    %d/%d flows in %v virtual\n", res.CompletedFlows, cfg.Flows, cfg.Horizon)
	fmt.Printf("aggregate    %.1f Kbps (fairness %.3f)\n", res.AggregateKbps, res.Fairness)
	fmt.Printf("radio        %d attempts, %d discards, %d EBSNs\n",
		res.RadioAttempts, res.RadioDiscards, res.EBSNsSent)
	fmt.Printf("source       %d timeouts, %d queue drops\n", res.TotalTimeouts, res.QueueDrops)
	fmt.Printf("engine       %d events in %v wall (%.0f ev/s), peak %d packets live, %d events pending\n",
		res.Events, wall.Round(time.Millisecond), float64(res.Events)/wall.Seconds(), res.Arena.PeakLive, res.CalendarPeak)
	return nil
}
