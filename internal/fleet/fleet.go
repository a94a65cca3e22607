// Package fleet distributes a sweep campaign across workers without
// giving up any guarantee the single-process engine provides.
//
// The shape is coordinator/worker over plain HTTP+JSON: the coordinator
// enumerates a campaign's point grid (experiment.SweepSpecs), shards it
// into work units, and leases units to workers; each worker executes
// its point exactly as the sequential engine would (same seeds, same
// retry/backoff schedule — experiment.RunPointSpec) and posts the raw
// replication records back. The coordinator merges results into the
// engine's own checkpoint file (experiment.Ledger), so running the
// ordinary figure sweeps against the merged file reloads every point
// and produces output byte-identical to a single-process run.
//
// The robustness machinery is the point of the package:
//
//   - Leases expire. A worker holds a unit only while its heartbeat
//     (lease renewal) keeps arriving; a SIGKILLed, hung, or partitioned
//     worker stops renewing, the lease lapses, and the unit returns to
//     the queue for reassignment. Nothing is lost.
//   - The ledger is the exactly-once boundary. Dispatch is at-least-once
//     by design (expiry and work stealing both re-issue units), but a
//     point settles exactly once: the first result recorded wins, and
//     every later post for the same key — a duplicated HTTP request, a
//     stolen unit's loser, a lease that expired in flight — is
//     acknowledged and dropped. Replications are deterministic, so the
//     duplicate would have carried identical bits anyway.
//   - Stragglers are stolen from. An idle worker re-leases a unit whose
//     holder has worked it for more than 4x the median unit time (the
//     PR-5 straggler signal applied at the fleet layer); first finisher
//     settles the point.
//   - Transient worker errors back off. Workers retry failed RPCs under
//     capped exponential backoff with deterministic jitter, and
//     pathological points quarantine through the same per-point circuit
//     breaker as the sequential engine, with the holding worker recorded
//     for the report's attribution table.
//   - Chaos is injectable. chaos.FleetFaults drops, duplicates, and
//     delays renewals and result posts, and kills a live worker, to
//     prove the above under fault rather than by argument.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
	"wtcp/internal/units"
)

// Campaign is the JSON manifest describing a sharded study: which
// figure sweeps to run and under which result-affecting options. It is
// the fleet analogue of a wtcp sim scenario file (and shares its budget
// block); workers fetch it from the coordinator at startup so one
// document governs the whole fleet. Example:
//
//	{
//	  "sweeps": ["fig7", "fig8"],
//	  "replications": 5,
//	  "transfer_kb": 100,
//	  "packet_sizes": [128, 512, 1536],
//	  "bad_periods": ["1s", "4s"],
//	  "oracle": true,
//	  "supervise": true,
//	  "budget": {"max_events": 200000000, "wall_clock": "5m"}
//	}
type Campaign struct {
	// Sweeps names the figure sweeps whose point grids form the
	// campaign (experiment.SweepFig7 etc.).
	Sweeps []string `json:"sweeps"`
	// Replications per point (default 5, as in the engine).
	Replications int `json:"replications,omitempty"`
	// BaseSeed offsets all randomness.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// TransferKB overrides the preset transfer size (KB); zero keeps
	// the paper's value.
	TransferKB int64 `json:"transfer_kb,omitempty"`
	// PacketSizes overrides the swept packet-size axis (bytes).
	PacketSizes []int `json:"packet_sizes,omitempty"`
	// BadPeriods overrides the swept bad-period axis ("1s", "800ms").
	BadPeriods []string `json:"bad_periods,omitempty"`
	// Retries bounds per-replication retries (engine semantics:
	// 0 = default of 1, negative disables).
	Retries int `json:"retries,omitempty"`
	// Checks and Oracle arm runtime invariant checking and the
	// conformance oracle inside every replication.
	Checks bool `json:"checks,omitempty"`
	Oracle bool `json:"oracle,omitempty"`
	// Supervise arms the per-point circuit breaker: pathological points
	// quarantine (attributed to their worker) instead of failing the
	// campaign.
	Supervise bool `json:"supervise,omitempty"`
	// Workers bounds how many replications of one point a single
	// fleet worker runs concurrently (experiment.Options.Workers;
	// results are identical for any value).
	Workers int `json:"workers,omitempty"`
	// Budget layers per-replication resource ceilings (shared schema
	// with wtcp sim scenario files; see internal/scenario).
	Budget *scenario.Budget `json:"budget,omitempty"`
}

// ParseCampaign decodes and validates a campaign manifest. Unknown
// fields are rejected so a typoed knob fails loudly.
func ParseCampaign(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("fleet: parse campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Validate rejects malformed manifests with messages that say how to
// fix the field.
func (c Campaign) Validate() error {
	if len(c.Sweeps) == 0 {
		return fmt.Errorf("fleet: campaign names no sweeps (want a list drawn from %q, %q, %q, %q)",
			experiment.SweepFig7, experiment.SweepFig8, experiment.SweepFig9, experiment.SweepLAN)
	}
	if _, err := c.Specs(); err != nil {
		return err
	}
	if c.Replications < 0 {
		return fmt.Errorf("fleet: replications %d is negative", c.Replications)
	}
	if c.TransferKB < 0 {
		return fmt.Errorf("fleet: transfer_kb %d is negative", c.TransferKB)
	}
	for _, s := range c.PacketSizes {
		if s <= 40 {
			return fmt.Errorf("fleet: packet size %d does not exceed the 40-byte TCP/IP header; the paper sweeps 128-1536", s)
		}
	}
	if _, err := c.badPeriods(); err != nil {
		return err
	}
	if c.Budget != nil {
		if _, err := c.Budget.Build(); err != nil {
			return err
		}
	}
	return nil
}

// badPeriods parses the overridden bad-period axis.
func (c Campaign) badPeriods() ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(c.BadPeriods))
	for i, v := range c.BadPeriods {
		d, err := scenario.ParsePositiveDur(fmt.Sprintf("bad_periods[%d]", i), v)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if d == 0 {
			return nil, fmt.Errorf("fleet: bad_periods[%d] is empty; give a duration like \"1s\"", i)
		}
		out = append(out, d)
	}
	return out, nil
}

// Options maps the campaign onto the engine's result-affecting options.
// Every worker and the coordinator's ledger derive their Options from
// here, which is what keeps the ledger fingerprint, the workers' seeds,
// and the final merge pass mutually consistent.
func (c Campaign) Options() (experiment.Options, error) {
	bads, err := c.badPeriods()
	if err != nil {
		return experiment.Options{}, err
	}
	opt := experiment.Options{
		Replications: c.Replications,
		BaseSeed:     c.BaseSeed,
		Transfer:     units.ByteSize(c.TransferKB) * units.KB,
		BadPeriods:   bads,
		Retries:      c.Retries,
		Checks:       c.Checks,
		Oracle:       c.Oracle,
		Workers:      c.Workers,
	}
	for _, s := range c.PacketSizes {
		opt.PacketSizes = append(opt.PacketSizes, units.ByteSize(s))
	}
	if c.Budget != nil {
		b, err := c.Budget.Build()
		if err != nil {
			return experiment.Options{}, err
		}
		opt.RunBudget = b
	}
	return opt, nil
}

// Specs enumerates the campaign's full point grid in canonical order.
func (c Campaign) Specs() ([]experiment.PointSpec, error) {
	opt, err := c.Options()
	if err != nil {
		return nil, err
	}
	specs, err := experiment.SweepSpecs(opt, c.Sweeps)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return specs, nil
}
