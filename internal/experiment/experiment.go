// Package experiment reproduces every result-bearing figure of the paper:
//
//   - Figures 3-5: deterministic-channel packet traces for basic TCP,
//     local recovery, and EBSN (TraceFigure).
//   - Figure 7: WAN throughput vs wired packet size for basic TCP, four
//     bad-period lengths (Fig7).
//   - Figure 8: the same sweep under EBSN (Fig8).
//   - Figure 9: WAN retransmitted data vs packet size for both schemes
//     (Fig9).
//   - Figures 10-11: LAN throughput and retransmitted data vs mean bad
//     period for basic TCP and EBSN (LANStudy).
//
// Each experiment runs independent seeded replications (the paper reports
// standard deviations below 4%) and returns per-point samples plus the
// theoretical maximum tput_th the paper marks on its axes.
//
// Sweeps run on a crash-safe engine (engine.go): they honour a
// context.Context, can spread replications over a bounded number of
// workers without changing any result bit, checkpoint finished points
// to disk so a killed campaign resumes where it stopped, and capture
// failed replications as repro bundles for wtcp repro.
package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
	"wtcp/internal/units"
)

// PacketSizes is the paper's swept wired-packet-size axis (128-1536
// bytes).
var PacketSizes = []units.ByteSize{
	128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1536,
}

// WANBadPeriods is the paper's wide-area mean-bad-period axis.
var WANBadPeriods = []time.Duration{
	1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second,
}

// LANBadPeriods is the paper's local-area mean-bad-period axis
// (400 ms - 1.6 s).
var LANBadPeriods = []time.Duration{
	400 * time.Millisecond, 600 * time.Millisecond, 800 * time.Millisecond,
	1000 * time.Millisecond, 1200 * time.Millisecond, 1400 * time.Millisecond,
	1600 * time.Millisecond,
}

// Options tunes an experiment run.
type Options struct {
	// Replications per point (default 5).
	Replications int
	// BaseSeed offsets the replication seeds so independent experiment
	// invocations can use disjoint randomness.
	BaseSeed int64
	// Transfer overrides the preset transfer size (tests use smaller
	// transfers for speed); zero keeps the paper's value.
	Transfer units.ByteSize
	// PacketSizes and BadPeriods override the swept axes; nil keeps the
	// paper's.
	PacketSizes []units.ByteSize
	BadPeriods  []time.Duration
	// Checks enables runtime invariant checking inside every run (see
	// core.Config.Checks). A violation fails the replication.
	Checks bool
	// Oracle arms the streaming conformance checker inside every run (see
	// core.Config.Oracle): each trace event is validated against the
	// Tahoe, ARQ, and EBSN rule sets, and a violation fails the
	// replication with the broken rule's name.
	Oracle bool

	// Workers bounds how many replications run concurrently, across the
	// points of a grid (default 1, i.e. sequential). Results are
	// identical for any worker count: each replication is an independent
	// single-threaded simulation, and samples are aggregated in seed
	// order.
	Workers int
	// Checkpoint, when non-empty, names the ledger file finished points
	// are appended to (one record per settled point) and reloaded from,
	// so an interrupted sweep resumes from the last completed point. The
	// file embeds a fingerprint of the result-affecting options; resuming
	// under different options is refused.
	Checkpoint string
	// ReproDir, when non-empty, names a directory where each permanently
	// failed replication is captured as a repro bundle for wtcp repro.
	ReproDir string
	// OnPoint, when set, is called with each point's key after the point
	// is freshly computed (not when reloaded from the checkpoint); calls
	// never overlap. Used for progress reporting and by tests to
	// interrupt a sweep.
	OnPoint func(key string)

	// RunBudget layers extra per-replication resource ceilings between
	// each run's own Config.Budget and the engine defaults
	// (DefaultRunWall, DefaultRunMaxEvents). Zero fields inherit;
	// negative fields mean explicitly unlimited, which is how a caller
	// turns the defaults off.
	RunBudget sim.Budget
	// Health, when set, receives real-time run telemetry: active
	// replications, events/sec, completed/retried/quarantined counts,
	// the quarantine records and the straggler log. Health.Heartbeat
	// persists and dumps it.
	Health *Health
}

// WithDefaults fills in what a zero field means: 5 replications.
func (o Options) WithDefaults() Options {
	if o.Replications <= 0 {
		o.Replications = 5
	}
	return o
}

// SizeAxis, WANBadAxis and LANBadAxis are the axes the options sweep:
// PacketSizes and BadPeriods, or the paper's where those are nil.
func (o Options) SizeAxis() []units.ByteSize {
	if len(o.PacketSizes) > 0 {
		return o.PacketSizes
	}
	return PacketSizes
}

func (o Options) WANBadAxis() []time.Duration {
	if len(o.BadPeriods) > 0 {
		return o.BadPeriods
	}
	return WANBadPeriods
}

func (o Options) LANBadAxis() []time.Duration {
	if len(o.BadPeriods) > 0 {
		return o.BadPeriods
	}
	return LANBadPeriods
}

// fingerprint digests the result-affecting options. Workers, Checkpoint,
// ReproDir, OnPoint, RunBudget and Health are deliberately excluded:
// they change how a sweep executes, never what a within-budget run
// measures, so a checkpoint written with -workers 4 resumes fine under
// -workers 1 and the points a tighter budget leaves unquarantined are
// bit-identical to an unbudgeted run's; a quarantine the budget forced
// records the ceiling it hit and answers only budgets no larger
// (Quarantine.answers). The "v1" prefix is the ledger
// version the fingerprint was introduced under; it stays 1 across ledger
// layouts, because the fingerprint names what was measured, not how it
// is stored, and CheckpointFor derives file names from it.
func (o Options) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1 reps=%d seed=%d transfer=%d checks=%v oracle=%v",
		o.Replications, o.BaseSeed, o.Transfer, o.Checks, o.Oracle)
	fmt.Fprintf(&b, " sizes=%v wanBads=%v lanBads=%v",
		o.SizeAxis(), o.WANBadAxis(), o.LANBadAxis())
	return b.String()
}

// ThroughputPoint is one (bad period, packet size) cell of Figures 7/8.
type ThroughputPoint struct {
	Scheme         bs.Scheme
	BadPeriod      time.Duration
	PacketSize     units.ByteSize
	ThroughputKbps *stats.Sample
	// Goodput is the paper's second metric: useful data over everything
	// the source transmitted.
	Goodput *stats.Sample
	// TheoreticalMaxKbps is the paper's tput_th for this bad period.
	TheoreticalMaxKbps float64
}

// ThroughputTable is the column list of Figures 7 and 8, pivoted in
// markdown as the paper plots them: packet size down, bad period across,
// the tput_th ceiling on top.
var ThroughputTable = Table[ThroughputPoint]{
	Keys: []Column[ThroughputPoint]{
		{Head: "scheme", CSV: "scheme", Value: func(p ThroughputPoint) any { return p.Scheme }},
		{Head: "bad", CSV: "bad_period_sec", CSVFormat: "%.1f", Value: func(p ThroughputPoint) any { return p.BadPeriod }},
		{Head: "pkt size", CSV: "packet_size_bytes", CSVFormat: "%d", Value: func(p ThroughputPoint) any { return p.PacketSize }},
	},
	Values: []Column[ThroughputPoint]{
		{Head: "throughput (Kbps)", CSV: "throughput_kbps", MD: "%.2f", CSVFormat: "%.3f", Sample: func(p ThroughputPoint) *stats.Sample { return p.ThroughputKbps }},
		{Head: "goodput", CSV: "goodput_mean", MD: "%.3f", CSVFormat: "%.4f", Value: func(p ThroughputPoint) any { return mean(p.Goodput) }},
		{Head: "tput_th", CSV: "tput_th_kbps", MD: "%.2f", CSVFormat: "%.3f", Value: func(p ThroughputPoint) any { return p.TheoreticalMaxKbps }},
	},
	Pivot: &Pivot{Down: []string{"pkt size"}, Across: "bad", Cell: "throughput (Kbps)", Top: []string{"tput_th"}},
}

// RetransPoint is one cell of Figure 9 (and the per-scheme halves of
// Figure 11): source-retransmitted data in KB.
type RetransPoint struct {
	Scheme     bs.Scheme
	BadPeriod  time.Duration
	PacketSize units.ByteSize
	RetransKB  *stats.Sample
	Timeouts   *stats.Sample
}

// RetransTable is the column list of Figure 9, pivoted in markdown like
// Figures 7 and 8, one block of rows per scheme.
var RetransTable = Table[RetransPoint]{
	Keys: []Column[RetransPoint]{
		{Head: "scheme", CSV: "scheme", Value: func(p RetransPoint) any { return p.Scheme }},
		{Head: "bad", CSV: "bad_period_sec", CSVFormat: "%.1f", Value: func(p RetransPoint) any { return p.BadPeriod }},
		{Head: "pkt size", CSV: "packet_size_bytes", CSVFormat: "%d", Value: func(p RetransPoint) any { return p.PacketSize }},
	},
	Values: []Column[RetransPoint]{
		{Head: "retransmitted (KB)", CSV: "retrans_kb", MD: "%.1f", CSVFormat: "%.3f", Sample: func(p RetransPoint) *stats.Sample { return p.RetransKB }},
		{Head: "timeouts", CSV: "timeouts_avg", MD: "%.1f", CSVFormat: "%.2f", Value: func(p RetransPoint) any { return mean(p.Timeouts) }},
	},
	Pivot: &Pivot{Down: []string{"scheme", "pkt size"}, Across: "bad", Cell: "retransmitted (KB)"},
}

// settleGrid settles points on the scheduler, on Workers slots and
// against the configured checkpoint ledger, and returns cell(i, cols) of
// every point, cols being one sample per metric column in seed order (a
// skipped replication shrinks n), nil where the point was quarantined
// (it is on opt.Health). So a study's result keeps every point of its
// grid, a quarantined one with only its keys, and each table keeps its
// rows. The figure and study functions keep only their grid and their
// aggregation.
func settleGrid[P any](ctx context.Context, opt Options, what string, points []point,
	cell func(i int, cols []stats.Sample) P) ([]P, error) {
	opt = opt.WithDefaults()
	var led *Ledger
	if opt.Checkpoint != "" {
		var err error
		if led, err = OpenLedger(opt.Checkpoint, opt); err != nil {
			return nil, err
		}
		defer led.Close()
	}
	outs, err := led.settle(ctx, opt, points, opt.slots())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	out := make([]P, len(outs))
	for i, res := range outs {
		var cols []stats.Sample
		if res.Quarantine == nil {
			cols = columns(res.Reps)
		}
		out[i] = cell(i, cols)
	}
	return out, nil
}

// sample is column k of a point's samples, nil for a quarantined point.
func sample(cols []stats.Sample, k int) *stats.Sample {
	if cols == nil {
		return nil
	}
	return &cols[k]
}

// columns is one sample per metric column of a finished point's
// records, the replications in seed order.
func columns(reps []RepRecord) []stats.Sample {
	cols := make([]stats.Sample, len(reps[0].Values))
	for _, rep := range reps {
		for c, bits := range rep.Values {
			cols[c].Add(math.Float64frombits(bits))
		}
	}
	return cols
}

// settleSweep settles one named figure sweep in canonical order
// (SweepSpecs): cell sees each finished point's spec and parsed scheme.
func settleSweep[P any](ctx context.Context, opt Options, sweep string,
	cell func(spec PointSpec, scheme bs.Scheme, cols []stats.Sample) P) ([]P, error) {
	specs, err := SweepSpecs(opt, []string{sweep})
	if err != nil {
		return nil, err
	}
	points, err := pointsOf(opt, specs)
	if err != nil {
		return nil, err
	}
	return settleGrid(ctx, opt, sweep+" sweep", points, func(i int, cols []stats.Sample) P {
		scheme, _ := bs.ParseScheme(specs[i].Scheme) // Key vetted it
		return cell(specs[i], scheme, cols)
	})
}

// throughputPoint is the Figure 7/8 cell of one finished point.
func throughputPoint(spec PointSpec, scheme bs.Scheme, cols []stats.Sample) ThroughputPoint {
	return ThroughputPoint{
		Scheme:             scheme,
		BadPeriod:          spec.Bad,
		PacketSize:         spec.Size,
		ThroughputKbps:     sample(cols, 0),
		Goodput:            sample(cols, 1),
		TheoreticalMaxKbps: core.WAN(scheme, spec.Size, spec.Bad).TheoreticalMaxKbps(),
	}
}

// ThroughputPoints aggregates settled Figure 7/8 points — specs[i]
// settled as outs[i] — like Fig7 and Fig8, but leaves quarantined ones
// out.
func ThroughputPoints(specs []PointSpec, outs []PointOutcome) []ThroughputPoint {
	var points []ThroughputPoint
	for i, out := range outs {
		if out.Quarantine == nil {
			scheme, _ := bs.ParseScheme(specs[i].Scheme) // settled, so Key vetted it
			points = append(points, throughputPoint(specs[i], scheme, columns(out.Reps)))
		}
	}
	return points
}

// configure applies the campaign's per-run options to a preset for the
// loop's seed argument.
func (o Options) configure(cfg core.Config, seed int64) core.Config {
	if o.Transfer > 0 {
		cfg.TransferSize = o.Transfer
	}
	cfg.Seed = o.BaseSeed + seed
	cfg.Checks = o.Checks
	cfg.Oracle = o.Oracle
	return cfg
}

// Fig7 reproduces Figure 7: basic-TCP throughput vs packet size.
func Fig7(ctx context.Context, opt Options) ([]ThroughputPoint, error) {
	return settleSweep(ctx, opt, SweepFig7, throughputPoint)
}

// Fig8 reproduces Figure 8: EBSN throughput vs packet size.
func Fig8(ctx context.Context, opt Options) ([]ThroughputPoint, error) {
	return settleSweep(ctx, opt, SweepFig8, throughputPoint)
}

// Fig9 reproduces Figure 9: retransmitted data vs packet size for basic
// TCP and EBSN.
func Fig9(ctx context.Context, opt Options) ([]RetransPoint, error) {
	return settleSweep(ctx, opt, SweepFig9, func(spec PointSpec, scheme bs.Scheme, cols []stats.Sample) RetransPoint {
		return RetransPoint{
			Scheme:     scheme,
			BadPeriod:  spec.Bad,
			PacketSize: spec.Size,
			RetransKB:  sample(cols, 0),
			Timeouts:   sample(cols, 1),
		}
	})
}

// LANPoint is one (scheme, bad period) cell of Figures 10 and 11.
type LANPoint struct {
	Scheme             bs.Scheme
	BadPeriod          time.Duration
	ThroughputMbps     *stats.Sample
	RetransKB          *stats.Sample
	Timeouts           *stats.Sample
	TheoreticalMaxMbps float64
}

// LANTable is the column list of Figures 10 and 11.
var LANTable = Table[LANPoint]{
	Keys: []Column[LANPoint]{
		{Head: "scheme", CSV: "scheme", Value: func(p LANPoint) any { return p.Scheme }},
		{Head: "bad", CSV: "bad_period_sec", CSVFormat: "%.1f", Value: func(p LANPoint) any { return p.BadPeriod }},
	},
	Values: []Column[LANPoint]{
		{Head: "throughput (Mbps)", CSV: "throughput_mbps", MD: "%.3f", CSVFormat: "%.4f", Sample: func(p LANPoint) *stats.Sample { return p.ThroughputMbps }},
		{Head: "retransmitted (KB)", CSV: "retrans_kb_mean", MD: "%.1f", CSVFormat: "%.2f", Value: func(p LANPoint) any { return mean(p.RetransKB) }},
		{Head: "timeouts", CSV: "timeouts_avg", MD: "%.1f", CSVFormat: "%.2f", Value: func(p LANPoint) any { return mean(p.Timeouts) }},
		{Head: "tput_th (Mbps)", CSV: "tput_th_mbps", MD: "%.3f", CSVFormat: "%.4f", Value: func(p LANPoint) any { return p.TheoreticalMaxMbps }},
	},
}

// LANStudy reproduces Figures 10 (throughput vs bad period) and 11
// (retransmitted data vs bad period) in one pass over basic TCP and EBSN.
func LANStudy(ctx context.Context, opt Options) ([]LANPoint, error) {
	return settleSweep(ctx, opt, SweepLAN, func(spec PointSpec, scheme bs.Scheme, cols []stats.Sample) LANPoint {
		return LANPoint{
			Scheme:             scheme,
			BadPeriod:          spec.Bad,
			ThroughputMbps:     sample(cols, 0),
			RetransKB:          sample(cols, 1),
			Timeouts:           sample(cols, 2),
			TheoreticalMaxMbps: core.LAN(scheme, spec.Bad).TheoreticalMaxKbps() / 1000,
		}
	})
}

// TraceFigure reproduces one of Figures 3-5: a deterministic-channel run
// (good 10 s / bad 4 s, exactly repeating) of a 576-byte-packet transfer
// with the packet trace collected. scheme selects the figure: Basic =
// Fig. 3, LocalRecovery = Fig. 4, EBSN = Fig. 5.
func TraceFigure(scheme bs.Scheme, horizon time.Duration) (*core.Result, error) {
	cfg := core.WAN(scheme, core.PaperWANPacketDefault, 4*time.Second)
	cfg.Channel.Deterministic = true
	cfg.CollectTrace = true
	cfg.Oracle = true
	if horizon > 0 {
		cfg.Horizon = horizon
	}
	return core.Run(cfg)
}

// OptimalPacketSize reports the packet size with the highest mean
// throughput among the given points for one bad period, with the winning
// mean; a quarantined point is never the winner.
func OptimalPacketSize(points []ThroughputPoint, bad time.Duration) (units.ByteSize, float64) {
	var bestSize units.ByteSize
	best := -1.0
	for _, p := range points {
		if p.BadPeriod != bad || p.ThroughputKbps == nil {
			continue
		}
		if m := p.ThroughputKbps.Mean(); m > best {
			best = m
			bestSize = p.PacketSize
		}
	}
	return bestSize, best
}
