package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wtcp/internal/handoff"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
)

// HandoffPoint is one (scheme, dwell) cell of the mobility study
// [Caceres & Iftode 94], the related work the paper's §2 opens with.
type HandoffPoint struct {
	Scheme         handoff.Scheme
	Dwell          time.Duration
	ThroughputKbps *stats.Sample
	TimeoutsAvg    float64
	FastRetxAvg    float64
}

// HandoffOptions holds the study's own axes; replications and transfer
// size come from Options. Handoff runs are fully deterministic
// (error-free cells, fixed dwell), so one replication per point
// suffices; Checks and Oracle have no counterpart here and are ignored.
type HandoffOptions struct {
	// Latency is the disconnection gap while switching cells; zero keeps
	// handoff.Defaults'.
	Latency time.Duration
	Dwells  []time.Duration
}

func (o HandoffOptions) withDefaults() HandoffOptions {
	if o.Latency <= 0 {
		o.Latency = handoff.Defaults(handoff.Plain).Latency
	}
	if len(o.Dwells) == 0 {
		o.Dwells = []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}
	}
	return o
}

// HandoffStudy compares plain TCP against fast-retransmit-on-handoff
// across cell dwell times, one engine point per (scheme, dwell) cell.
func HandoffStudy(ctx context.Context, opt Options, axes HandoffOptions) ([]HandoffPoint, error) {
	axes = axes.withDefaults()
	var points []point
	var grid []HandoffPoint
	for _, scheme := range []handoff.Scheme{handoff.Plain, handoff.FastRetransmit} {
		for _, dwell := range axes.Dwells {
			grid = append(grid, HandoffPoint{Scheme: scheme, Dwell: dwell})
			points = append(points, point{
				key: fmt.Sprintf("handoff/%v/dwell=%v/latency=%v", scheme, dwell, axes.Latency),
				run: handoffReplication(opt, axes, scheme, dwell),
			})
		}
	}
	return settleGrid(ctx, opt, "handoff study", points, func(i int, _ []RepRecord, cols []stats.Sample) HandoffPoint {
		p := grid[i]
		p.ThroughputKbps, p.TimeoutsAvg, p.FastRetxAvg = &cols[0], cols[1].Mean(), cols[2].Mean()
		return p
	})
}

// handoffReplication runs one cell of the study on internal/handoff's own
// two-cell topology. It has no watchdog and no repro-bundle format.
func handoffReplication(opt Options, axes HandoffOptions, scheme handoff.Scheme, dwell time.Duration) replication {
	return func(ctx context.Context, seed int64, budget func(sim.Budget) sim.Budget) (repRun, error) {
		cfg := handoff.Defaults(scheme)
		cfg.Dwell = dwell
		cfg.Latency = axes.Latency
		cfg.Seed = opt.BaseSeed + seed
		if opt.Transfer > 0 {
			cfg.TransferSize = opt.Transfer
		}
		r, err := handoff.RunContext(ctx, cfg, budget(sim.Budget{}))
		if err != nil {
			return repRun{seed: cfg.Seed}, err
		}
		return repRun{seed: cfg.Seed, events: r.Events,
			values: []float64{r.ThroughputKbps, float64(r.Timeouts), float64(r.FastRetransmits)}}, nil
	}
}

// RenderHandoffTable formats the study.
func RenderHandoffTable(title string, points []HandoffPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s  %-10s  %-18s  %-10s  %-10s\n",
		"scheme", "dwell", "throughput(Kbps)", "timeouts", "fastretx")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s  %-10s  %-18s  %-10.1f  %-10.1f\n",
			p.Scheme, p.Dwell,
			fmt.Sprintf("%.0f", p.ThroughputKbps.Mean()),
			p.TimeoutsAvg, p.FastRetxAvg)
	}
	return b.String()
}

// HandoffCSV emits the study as CSV.
func HandoffCSV(points []HandoffPoint) string {
	var b strings.Builder
	b.WriteString("scheme,dwell_sec,throughput_kbps_mean,throughput_kbps_stddev,timeouts_avg,fastretx_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.1f,%.2f,%.2f,%.1f,%.1f\n",
			p.Scheme, p.Dwell.Seconds(),
			p.ThroughputKbps.Mean(), p.ThroughputKbps.StdDev(),
			p.TimeoutsAvg, p.FastRetxAvg)
	}
	return b.String()
}
