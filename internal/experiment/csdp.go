package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
)

// CSDPPoint is one (policy, bad period) cell of the related-work
// scheduling study (paper §2, [Bhagwat 95]).
type CSDPPoint struct {
	Policy        cell.Policy
	BadPeriod     time.Duration
	AggregateKbps *stats.Sample
	Fairness      *stats.Sample
	DiscardsAvg   float64
}

// CSDPOptions holds the scheduling study's own axes; replications,
// seeds and transfer size come from Options. Its Oracle attaches the
// cell engine's sampled conformance checker to every flow; its Checks
// has no counterpart in these runs and is ignored.
type CSDPOptions struct {
	Connections int
	BadPeriods  []time.Duration
	// Accuracy is the CSDP predictor accuracy (1.0 = oracle).
	Accuracy float64
}

func (o CSDPOptions) withDefaults() CSDPOptions {
	if o.Connections <= 0 {
		o.Connections = 4
	}
	if len(o.BadPeriods) == 0 {
		o.BadPeriods = []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	}
	if o.Accuracy <= 0 {
		o.Accuracy = 1.0
	}
	return o
}

// CSDPStudy runs the FIFO / round-robin / CSDP comparison across bad
// periods, one engine point per (policy, bad period) cell.
func CSDPStudy(ctx context.Context, opt Options, axes CSDPOptions) ([]CSDPPoint, error) {
	axes = axes.withDefaults()
	var points []point
	var grid []CSDPPoint
	for _, policy := range []cell.Policy{cell.FIFO, cell.RoundRobin, cell.CSDP} {
		for _, bad := range axes.BadPeriods {
			grid = append(grid, CSDPPoint{Policy: policy, BadPeriod: bad})
			points = append(points, point{
				key: fmt.Sprintf("csdp/%v/bad=%v/conns=%d/acc=%g", policy, bad, axes.Connections, axes.Accuracy),
				run: csdpReplication(opt, axes, policy, bad),
			})
		}
	}
	return settleGrid(ctx, opt, "csdp study", points, func(i int, _ []RepRecord, cols []stats.Sample) CSDPPoint {
		p := grid[i]
		p.AggregateKbps, p.Fairness, p.DiscardsAvg = &cols[0], &cols[1], cols[2].Mean()
		return p
	})
}

// csdpReplication runs one point of the study on the cell engine's LAN
// configuration; cell.RunContext polls ctx and enforces the budget itself.
// It has no watchdog and no repro-bundle format.
func csdpReplication(opt Options, axes CSDPOptions, policy cell.Policy, bad time.Duration) replication {
	return func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error) {
		cfg := csdpConfig(opt, axes, policy, bad, seed)
		r, err := cell.RunContext(ctx, cfg, budget(sim.Budget{}))
		if err != nil {
			return repRun{seed: cfg.Seed}, err
		}
		return repRun{seed: cfg.Seed, events: r.Events,
			values: []float64{r.AggregateKbps, r.Fairness, float64(r.RadioDiscards)}}, nil
	}
}

// csdpConfig is the cell configuration of one replication of one point.
func csdpConfig(opt Options, axes CSDPOptions, policy cell.Policy, bad time.Duration, seed int64) cell.Config {
	cfg := cell.LAN(axes.Connections, policy, bad)
	cfg.PredictorAccuracy = axes.Accuracy
	cfg.Seed = opt.BaseSeed + seed
	if opt.Transfer > 0 {
		cfg.TransferSize = opt.Transfer
	}
	if opt.Oracle {
		cfg.OracleSample = axes.Connections
	}
	return cfg
}

// RenderCSDPTable formats the scheduling study.
func RenderCSDPTable(title string, points []CSDPPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s  %-10s  %-20s  %-10s  %-10s\n",
		"policy", "bad", "aggregate(Kbps)", "fairness", "discards")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s  %-10s  %-20s  %-10s  %-10.1f\n",
			p.Policy, p.BadPeriod,
			fmt.Sprintf("%.0f±%.0f%%", p.AggregateKbps.Mean(), 100*p.AggregateKbps.RelStdDev()),
			fmt.Sprintf("%.3f", p.Fairness.Mean()),
			p.DiscardsAvg)
	}
	return b.String()
}

// CSDPCSV emits the study as CSV.
func CSDPCSV(points []CSDPPoint) string {
	var b strings.Builder
	b.WriteString("policy,bad_period_sec,aggregate_kbps_mean,aggregate_kbps_stddev,fairness_mean,discards_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.1f,%.2f,%.2f,%.4f,%.1f\n",
			p.Policy, p.BadPeriod.Seconds(),
			p.AggregateKbps.Mean(), p.AggregateKbps.StdDev(),
			p.Fairness.Mean(), p.DiscardsAvg)
	}
	return b.String()
}
