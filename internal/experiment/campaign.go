package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"wtcp/internal/scenario"
	"wtcp/internal/units"
)

// Campaign is the JSON manifest of a sweep study: which figure sweeps
// to run and under which result-affecting options. wtcpd's /v1/sweep
// executes one (internal/serve); it is the sweep analogue of a wtcp sim
// scenario file and shares its budget block. Example:
//
//	{
//	  "sweeps": ["fig7", "fig8"],
//	  "replications": 5,
//	  "transfer_kb": 100,
//	  "packet_sizes": [128, 512, 1536],
//	  "bad_periods": ["1s", "4s"],
//	  "oracle": true,
//	  "budget": {"max_events": 200000000, "wall_clock": "5m"}
//	}
type Campaign struct {
	// Sweeps names the figure sweeps whose point grids form the
	// campaign (SweepFig7 etc.).
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
	// Checks and Oracle arm runtime invariant checking and the
	// conformance oracle inside every replication.
	Checks bool `json:"checks,omitempty"`
	Oracle bool `json:"oracle,omitempty"`
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
		return Campaign{}, fmt.Errorf("experiment: parse campaign: %w", err)
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
		return fmt.Errorf("experiment: campaign names no sweeps (want a list drawn from %q, %q, %q, %q)",
			SweepFig7, SweepFig8, SweepFig9, SweepLAN)
	}
	opt, err := c.Options() // parses the bad periods and the budget
	if err != nil {
		return err
	}
	if _, err := SweepSpecs(opt, c.Sweeps); err != nil {
		return err
	}
	if c.Replications < 0 {
		return fmt.Errorf("experiment: replications %d is negative", c.Replications)
	}
	if c.TransferKB < 0 {
		return fmt.Errorf("experiment: transfer_kb %d is negative", c.TransferKB)
	}
	for _, s := range c.PacketSizes {
		if s <= 40 {
			return fmt.Errorf("experiment: packet size %d does not exceed the 40-byte TCP/IP header; the paper sweeps 128-1536", s)
		}
	}
	if err := refuseRepeats("sweeps", c.Sweeps); err != nil {
		return err
	}
	if err := refuseRepeats("packet_sizes", c.PacketSizes); err != nil {
		return err
	}
	return refuseRepeats("bad_periods", opt.BadPeriods)
}

// refuseRepeats names the first value of list that an earlier entry
// already holds. A repeated axis value would answer one point twice and
// a repeated sweep one grid twice; values compare as parsed, so "1s"
// repeats "1000ms".
func refuseRepeats[T comparable](field string, list []T) error {
	first := make(map[T]int, len(list))
	for i, v := range list {
		if k, ok := first[v]; ok {
			return fmt.Errorf("experiment: %s[%d] repeats %v (%s[%d]); name each value once", field, i, v, field, k)
		}
		first[v] = i
	}
	return nil
}

// badPeriods parses the overridden bad-period axis.
func (c Campaign) badPeriods() ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(c.BadPeriods))
	for i, v := range c.BadPeriods {
		d, err := scenario.ParsePositiveDur(fmt.Sprintf("bad_periods[%d]", i), v)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		if d == 0 {
			return nil, fmt.Errorf("experiment: bad_periods[%d] is empty; give a duration like \"1s\"", i)
		}
		out = append(out, d)
	}
	return out, nil
}

// Options maps the campaign onto the engine's result-affecting options.
// Every executor's ledger and seeds derive from here, and so does
// wtcpd's address for the campaign (Fingerprint of these options), so a
// manifest's spelling never splits one grid in two.
func (c Campaign) Options() (Options, error) {
	bads, err := c.badPeriods()
	if err != nil {
		return Options{}, err
	}
	opt := Options{
		Replications: c.Replications,
		BaseSeed:     c.BaseSeed,
		Transfer:     units.ByteSize(c.TransferKB) * units.KB,
		BadPeriods:   bads,
		Checks:       c.Checks,
		Oracle:       c.Oracle,
	}
	for _, s := range c.PacketSizes {
		opt.PacketSizes = append(opt.PacketSizes, units.ByteSize(s))
	}
	if c.Budget != nil {
		b, err := c.Budget.Build()
		if err != nil {
			return Options{}, err
		}
		opt.RunBudget = b
	}
	return opt, nil
}

// Specs enumerates the campaign's full point grid in canonical order.
func (c Campaign) Specs() ([]PointSpec, error) {
	opt, err := c.Options()
	if err != nil {
		return nil, err
	}
	return SweepSpecs(opt, c.Sweeps)
}
