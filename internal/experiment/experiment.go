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
// context.Context, can spread replications over a bounded worker pool
// without changing any result bit, checkpoint finished points to disk so
// a killed campaign resumes where it stopped, and capture failed
// replications as repro bundles for wtcp repro.
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
	// Retries bounds how many times a failed or watchdog-aborted
	// replication is re-run with fresh randomness before being skipped
	// (default 1; negative disables retrying).
	Retries int
	// Checks enables runtime invariant checking inside every run (see
	// core.Config.Checks). A violation fails the replication.
	Checks bool
	// Oracle arms the streaming conformance checker inside every run (see
	// core.Config.Oracle): each trace event is validated against the
	// Tahoe, ARQ, and EBSN rule sets, and a violation fails the
	// replication with the broken rule's name.
	Oracle bool

	// Workers bounds how many replications of a point run concurrently
	// (default 1, i.e. sequential). Results are identical for any worker
	// count: each replication is an independent single-threaded
	// simulation, and samples are aggregated in seed order.
	Workers int
	// Checkpoint, when non-empty, names a file finished points are saved
	// to (atomic write-rename) and reloaded from, so an interrupted
	// sweep resumes from the last completed point. The file embeds a
	// fingerprint of the result-affecting options; resuming under
	// different options is refused.
	Checkpoint string
	// ReproDir, when non-empty, names a directory where each permanently
	// failed replication is captured as a repro bundle for wtcp repro.
	ReproDir string
	// OnPoint, when set, is called with each point's key after the point
	// is freshly computed (not when reloaded from the checkpoint). Used
	// for progress reporting and by tests to interrupt a sweep.
	OnPoint func(key string)

	// Supervise arms the per-point circuit breaker (see supervise.go):
	// a point whose replications exhaust the engine's patience —
	// resource-exhausted, or every replication permanently failed — is
	// quarantined and recorded on the Supervisor (and in the
	// checkpoint), and the sweep continues degraded instead of failing.
	// Nil keeps the historical all-or-nothing behaviour.
	Supervise *Supervisor
	// RunBudget layers extra per-replication resource ceilings between
	// each run's own Config.Budget and the engine defaults
	// (DefaultRunWall, DefaultRunMaxEvents). Zero fields inherit;
	// negative fields mean explicitly unlimited.
	RunBudget sim.Budget
	// NoRunBudget disables the engine's default per-run wall-clock and
	// event ceilings (RunBudget and per-run Config.Budget still apply).
	NoRunBudget bool
	// Health, when set, receives real-time run telemetry: active
	// replications, events/sec, completed/retried/quarantined counts,
	// and the straggler log. See Health.SetStatusPath / NotifyOnSignal.
	Health *Health
}

// WithDefaults fills in what a zero field means: 5 replications.
func (o Options) WithDefaults() Options {
	if o.Replications <= 0 {
		o.Replications = 5
	}
	return o
}

func (o Options) packetSizes() []units.ByteSize {
	if len(o.PacketSizes) > 0 {
		return o.PacketSizes
	}
	return PacketSizes
}

func (o Options) wanBadPeriods() []time.Duration {
	if len(o.BadPeriods) > 0 {
		return o.BadPeriods
	}
	return WANBadPeriods
}

func (o Options) lanBadPeriods() []time.Duration {
	if len(o.BadPeriods) > 0 {
		return o.BadPeriods
	}
	return LANBadPeriods
}

// workers resolves the worker-pool width.
func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// fingerprint digests the result-affecting options. Workers, Checkpoint,
// ReproDir, OnPoint, and the supervision knobs (Supervise, RunBudget,
// NoRunBudget, Health) are deliberately excluded: they change how a
// sweep executes, never what a within-budget run measures, so a
// checkpoint written with -workers 4 resumes fine under -workers 1 and
// a governed sweep's surviving points are bit-identical to an
// ungoverned run's. The "v1" prefix is the ledger version the
// fingerprint was introduced under; it stays 1 across ledger layouts,
// because the fingerprint names what was measured, not how it is
// stored, and CheckpointFor derives file names from it.
func (o Options) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1 reps=%d seed=%d transfer=%d retries=%d checks=%v oracle=%v",
		o.Replications, o.BaseSeed, o.Transfer, o.retries(), o.Checks, o.Oracle)
	fmt.Fprintf(&b, " sizes=%v wanBads=%v lanBads=%v",
		o.packetSizes(), o.wanBadPeriods(), o.lanBadPeriods())
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
	// Seeds records, in replication order, the seed each contributing run
	// actually used — a retried replication shows its substituted seed.
	Seeds []int64
}

// RetransPoint is one cell of Figure 9 (and the per-scheme halves of
// Figure 11): source-retransmitted data in KB.
type RetransPoint struct {
	Scheme      bs.Scheme
	BadPeriod   time.Duration
	PacketSize  units.ByteSize
	RetransKB   *stats.Sample
	TimeoutsAvg float64
	// Seeds records the seed each contributing replication actually used.
	Seeds []int64
}

// point is one keyed cell of a grid: what Ledger.settle settles.
type point struct {
	key string
	run replication
}

// settleGrid is the engine's dispatch loop: it settles points in order
// against the configured checkpoint ledger and returns cell(i, reps,
// cols) of each finished one, cols being one sample per metric column
// with the replications in seed order — so an average over the
// replications that ran is a column's Mean, and a skipped replication
// shrinks n. Quarantined points are left out — they are on
// opt.Supervise — and the first error ends the grid. The figure and
// study functions keep only their grid and their aggregation.
func settleGrid[P any](ctx context.Context, opt Options, what string, points []point,
	cell func(i int, reps []RepRecord, cols []stats.Sample) P) ([]P, error) {
	opt = opt.WithDefaults()
	var led *Ledger
	if opt.Checkpoint != "" {
		var err error
		if led, err = OpenLedger(opt.Checkpoint, opt); err != nil {
			return nil, err
		}
		defer led.Close()
	}
	var out []P
	for i, p := range points {
		res, err := led.settle(ctx, opt, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		if res.Quarantine != nil {
			continue
		}
		cols := make([]stats.Sample, len(res.Reps[0].Values))
		for _, rep := range res.Reps {
			for c, bits := range rep.Values {
				cols[c].Add(math.Float64frombits(bits))
			}
		}
		out = append(out, cell(i, res.Reps, cols))
	}
	return out, nil
}

// settleSweep settles one named figure sweep in canonical order
// (SweepSpecs): cell sees each finished point's spec and parsed scheme.
func settleSweep[P any](ctx context.Context, opt Options, sweep string,
	cell func(spec PointSpec, scheme bs.Scheme, reps []RepRecord, cols []stats.Sample) P) ([]P, error) {
	specs, err := SweepSpecs(opt, []string{sweep})
	if err != nil {
		return nil, err
	}
	points := make([]point, len(specs))
	schemes := make([]bs.Scheme, len(specs))
	for i, spec := range specs {
		if schemes[i], err = bs.ParseScheme(spec.Scheme); err != nil {
			return nil, err
		}
		if points[i], err = spec.point(opt); err != nil {
			return nil, err
		}
	}
	return settleGrid(ctx, opt, sweep+" sweep", points, func(i int, reps []RepRecord, cols []stats.Sample) P {
		return cell(specs[i], schemes[i], reps, cols)
	})
}

// wanSweep aggregates the WAN packet-size sweep of Figure 7 or 8.
func wanSweep(ctx context.Context, sweep string, opt Options) ([]ThroughputPoint, error) {
	return settleSweep(ctx, opt, sweep, func(spec PointSpec, scheme bs.Scheme, reps []RepRecord, cols []stats.Sample) ThroughputPoint {
		return ThroughputPoint{
			Scheme:             scheme,
			BadPeriod:          spec.Bad,
			PacketSize:         spec.Size,
			ThroughputKbps:     &cols[0],
			Goodput:            &cols[1],
			TheoreticalMaxKbps: core.WAN(scheme, spec.Size, spec.Bad).TheoreticalMaxKbps(),
			Seeds:              seedsOf(reps),
		}
	})
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

// retries resolves the per-replication retry budget.
func (o Options) retries() int {
	switch {
	case o.Retries > 0:
		return o.Retries
	case o.Retries < 0:
		return 0
	default:
		return 1
	}
}

// retrySeedOffset pushes a retried replication's seed far outside the
// normal per-point seed range, so retries draw fresh, disjoint randomness
// instead of replaying the failure.
const retrySeedOffset = int64(1) << 20

// firstLine trims a multi-line diagnostic (a watchdog snapshot) to its
// summary line for inline error messages.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Fig7 reproduces Figure 7: basic-TCP throughput vs packet size.
func Fig7(ctx context.Context, opt Options) ([]ThroughputPoint, error) {
	return wanSweep(ctx, SweepFig7, opt)
}

// Fig8 reproduces Figure 8: EBSN throughput vs packet size.
func Fig8(ctx context.Context, opt Options) ([]ThroughputPoint, error) {
	return wanSweep(ctx, SweepFig8, opt)
}

// Fig9 reproduces Figure 9: retransmitted data vs packet size for basic
// TCP and EBSN.
func Fig9(ctx context.Context, opt Options) ([]RetransPoint, error) {
	return settleSweep(ctx, opt, SweepFig9, func(spec PointSpec, scheme bs.Scheme, reps []RepRecord, cols []stats.Sample) RetransPoint {
		return RetransPoint{
			Scheme:      scheme,
			BadPeriod:   spec.Bad,
			PacketSize:  spec.Size,
			RetransKB:   &cols[0],
			TimeoutsAvg: cols[1].Mean(),
			Seeds:       seedsOf(reps),
		}
	})
}

// LANPoint is one (scheme, bad period) cell of Figures 10 and 11.
type LANPoint struct {
	Scheme             bs.Scheme
	BadPeriod          time.Duration
	ThroughputMbps     *stats.Sample
	RetransKB          *stats.Sample
	TimeoutsAvg        float64
	TheoreticalMaxMbps float64
	// Seeds records the seed each contributing replication actually used.
	Seeds []int64
}

// LANStudy reproduces Figures 10 (throughput vs bad period) and 11
// (retransmitted data vs bad period) in one pass over basic TCP and EBSN.
func LANStudy(ctx context.Context, opt Options) ([]LANPoint, error) {
	return settleSweep(ctx, opt, SweepLAN, func(spec PointSpec, scheme bs.Scheme, reps []RepRecord, cols []stats.Sample) LANPoint {
		return LANPoint{
			Scheme:             scheme,
			BadPeriod:          spec.Bad,
			ThroughputMbps:     &cols[0],
			RetransKB:          &cols[1],
			TimeoutsAvg:        cols[2].Mean(),
			TheoreticalMaxMbps: core.LAN(scheme, spec.Bad).TheoreticalMaxKbps() / 1000,
			Seeds:              seedsOf(reps),
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
// mean.
func OptimalPacketSize(points []ThroughputPoint, bad time.Duration) (units.ByteSize, float64) {
	var bestSize units.ByteSize
	best := -1.0
	for _, p := range points {
		if p.BadPeriod != bad {
			continue
		}
		if m := p.ThroughputKbps.Mean(); m > best {
			best = m
			bestSize = p.PacketSize
		}
	}
	return bestSize, best
}
