package experiment

import (
	"context"
	"fmt"
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
	Timeouts       *stats.Sample
	RetransKB      *stats.Sample
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
	return settleGrid(ctx, opt, "zoo study", points, func(i int, cols []stats.Sample) ZooPoint {
		p := grid[i]
		p.ThroughputKbps, p.Goodput = sample(cols, 0), sample(cols, 1)
		p.Timeouts, p.RetransKB = sample(cols, 2), sample(cols, 3)
		return p
	})
}

// ZooTable is the head-to-head study's column list.
var ZooTable = Table[ZooPoint]{
	Keys: []Column[ZooPoint]{
		{Head: "variant", CSV: "variant", Value: func(p ZooPoint) any { return p.Variant }},
		{Head: "scheme", CSV: "scheme", Value: func(p ZooPoint) any { return p.Scheme }},
	},
	Values: []Column[ZooPoint]{
		{Head: "throughput (Kbps)", CSV: "tput_kbps", MD: "%.2f", CSVFormat: "%.2f", Sample: func(p ZooPoint) *stats.Sample { return p.ThroughputKbps }},
		{Head: "goodput", CSV: "goodput_mean", MD: "%.3f", CSVFormat: "%.4f", Value: func(p ZooPoint) any { return mean(p.Goodput) }},
		{Head: "timeouts", CSV: "timeouts_avg", MD: "%.1f", CSVFormat: "%.1f", Value: func(p ZooPoint) any { return mean(p.Timeouts) }},
		{Head: "retransmitted (KB)", CSV: "retrans_kb_avg", MD: "%.1f", CSVFormat: "%.1f", Value: func(p ZooPoint) any { return mean(p.RetransKB) }},
	},
}
