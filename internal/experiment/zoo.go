package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/stats"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// ZooPoint is one (sender variant, base-station scheme) cell of the
// protocol-zoo head-to-head study: the same seeded Gilbert channel driven
// through every combination of end-to-end TCP variant and link-layer
// assistance the related work proposes.
type ZooPoint struct {
	Variant        tcp.Variant
	Scheme         bs.Scheme
	ThroughputKbps *stats.Sample
	Goodput        *stats.Sample
	TimeoutsAvg    float64
	RetransKBAvg   float64
}

// ZooOptions holds the protocol-zoo study's own axis; replications,
// seeds and transfer size come from Options.
type ZooOptions struct {
	BadPeriod time.Duration
}

// zooPacketSize is the wired packet size every cell runs at.
const zooPacketSize units.ByteSize = 576

func (o ZooOptions) withDefaults() ZooOptions {
	if o.BadPeriod <= 0 {
		o.BadPeriod = 2 * time.Second
	}
	return o
}

// ZooStudy runs the full zoo on the paper's WAN channel — every sender
// variant against {Basic, EBSN, Snoop, SplitConnection} — one engine
// point per cell. Every cell uses the same seeds, so differences are
// attributable to the protocols, and every run has the conformance
// oracle armed under the cell's own variant profile whatever opt.Oracle
// says — a violation is a protocol bug and fails the study; a transfer
// that does not complete fails its replication.
func ZooStudy(ctx context.Context, opt Options, axes ZooOptions) ([]ZooPoint, error) {
	return zooStudy(ctx, opt, axes,
		[]tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant},
		[]bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection})
}

// zooStudy runs the study over the given variants and schemes.
func zooStudy(ctx context.Context, opt Options, axes ZooOptions, variants []tcp.Variant, schemes []bs.Scheme) ([]ZooPoint, error) {
	axes = axes.withDefaults()
	var points []point
	var grid []ZooPoint
	for _, variant := range variants {
		for _, scheme := range schemes {
			grid = append(grid, ZooPoint{Variant: variant, Scheme: scheme})
			points = append(points, point{
				key: fmt.Sprintf("zoo/%v/%v/bad=%v/size=%d", variant, scheme, axes.BadPeriod, zooPacketSize),
				run: coreReplication(func(seed int64) core.Config {
					cfg := opt.configure(core.WAN(scheme, zooPacketSize, axes.BadPeriod), seed)
					cfg.Variant = variant
					cfg.Oracle = true
					return cfg
				}, func(r *core.Result) ([]float64, error) {
					return []float64{r.Summary.ThroughputKbps, r.Summary.Goodput,
						float64(r.Summary.Timeouts), r.Summary.RetransmittedKB()}, nil
				}),
			})
		}
	}
	return settleGrid(ctx, opt, "zoo study", points, func(i int, _ []RepRecord, cols []stats.Sample) ZooPoint {
		p := grid[i]
		p.ThroughputKbps, p.Goodput = &cols[0], &cols[1]
		p.TimeoutsAvg, p.RetransKBAvg = cols[2].Mean(), cols[3].Mean()
		return p
	})
}

// ZooCell returns the study point for one (variant, scheme) pair, or nil.
func ZooCell(points []ZooPoint, v tcp.Variant, s bs.Scheme) *ZooPoint {
	for i := range points {
		if points[i].Variant == v && points[i].Scheme == s {
			return &points[i]
		}
	}
	return nil
}

// RenderZooTable formats the head-to-head study, one row per variant and
// one column group per scheme.
func RenderZooTable(title string, points []ZooPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s  %-8s  %-16s  %-10s  %-9s  %-10s\n",
		"variant", "scheme", "tput(Kbps)", "goodput", "timeouts", "retrans(KB)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s  %-8s  %-16s  %-10s  %-9.1f  %-10.1f\n",
			p.Variant, p.Scheme,
			fmt.Sprintf("%.2f±%.0f%%", p.ThroughputKbps.Mean(), 100*p.ThroughputKbps.RelStdDev()),
			fmt.Sprintf("%.3f", p.Goodput.Mean()),
			p.TimeoutsAvg, p.RetransKBAvg)
	}
	return b.String()
}

// ZooCSV emits the study as CSV.
func ZooCSV(points []ZooPoint) string {
	var b strings.Builder
	b.WriteString("variant,scheme,tput_kbps_mean,tput_kbps_stddev,goodput_mean,timeouts_avg,retrans_kb_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%s,%.2f,%.2f,%.4f,%.1f,%.1f\n",
			p.Variant, p.Scheme,
			p.ThroughputKbps.Mean(), p.ThroughputKbps.StdDev(),
			p.Goodput.Mean(), p.TimeoutsAvg, p.RetransKBAvg)
	}
	return b.String()
}
