package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
)

// simFlags declares wtcp sim, which runs one simulated bulk transfer over
// the paper's FH-BS-MH topology and prints the measured metrics:
//
//	wtcp sim -scheme basic -packet 576 -bad 4s
//	wtcp sim -scheme ebsn -packet 1536 -bad 2s -reps 5
//	wtcp sim -lan -scheme ebsn -bad 800ms
//	wtcp sim -cell 10000                 # the flat cell-scale engine
func simFlags(fs *flag.FlagSet) body {
	var sc simScenario
	sc.declare(fs)
	var (
		reps    = fs.Int("reps", 1, "independent replications")
		verbose = fs.Bool("v", false, "print per-component counters")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON results")

		cellFlows   = fs.Int("cell", 0, "cell-scale mode: simulate this many concurrent flows on the flat engine (try 1000, 10000, 50000)")
		cellPolicy  = fs.String("cell-policy", "roundrobin", "cell radio scheduling: fifo|roundrobin|csdp")
		cellBad     = fs.Duration("cell-bad", 0, "cell mean bad-period length (0 = preset's 500ms)")
		cellHorizon = fs.Duration("cell-horizon", 0, "cell virtual-time horizon (0 = preset's 60s)")
		cellOracle  = fs.Int("cell-oracle", 0, "attach the conformance oracle to this many sampled flows")
	)
	return func(ctx context.Context, opt experiment.Options, stdout, stderr io.Writer) error {
		if *cellFlows < 0 {
			return fmt.Errorf("-cell %d: flow count must be positive", *cellFlows)
		}
		if *cellFlows > 0 {
			if set := setFlags(fs, "config", "scheme", "variant", "packet", "bad", "good", "transfer", "lan", "reps", "checks", "strict", "v"); len(set) > 0 {
				return fmt.Errorf("-cell runs the flat cell engine, which does not read %s; drop them", strings.Join(set, " "))
			}
			return runCellMode(ctx, stdout, cellOptions{
				flows:   *cellFlows,
				policy:  *cellPolicy,
				bad:     *cellBad,
				horizon: *cellHorizon,
				oracle:  *cellOracle,
				seed:    sc.file.Seed,
				jsonOut: *jsonOut,
				budget:  opt.RunBudget,
			})
		}
		if *reps < 1 {
			return fmt.Errorf("-reps %d: need at least one replication", *reps)
		}
		cfg, err := sc.config(fs)
		if err != nil {
			return err
		}
		// Budget flags override the scenario file's budget field by
		// field; the engine fills in whatever neither sets.
		cfg.Budget = opt.RunBudget.Or(cfg.Budget)
		if !*jsonOut {
			fmt.Fprintf(stdout, "scheme=%s packet=%dB transfer=%s window=%s bad=%v good=%v tput_th=%.2fKbps\n",
				cfg.Scheme, cfg.PacketSize, cfg.TransferSize, cfg.Window,
				cfg.Channel.MeanBad, cfg.Channel.MeanGood, cfg.TheoreticalMaxKbps())
		}

		// One scenario run: at one worker the scheduler measures the
		// replications in seed order on this goroutine, so last is the
		// final one that counted. A quarantined scenario is the error.
		opt.Replications = *reps
		var last *core.Result
		recs, quar, err := experiment.RunScenario(ctx, opt, "wtcp sim", cfg, func(r *core.Result) { last = r })
		if err != nil {
			return err
		}
		if quar != nil {
			if quar.Class == string(core.ClassResourceExhausted) {
				return fmt.Errorf("%w; raise -max-events/-run-deadline or pass -no-run-budget if the scenario is legitimately this heavy", quar.Err())
			}
			return quar.Err()
		}
		if failed := *reps - len(recs); failed > 0 {
			fmt.Fprintf(stderr, "%d of %d replications failed; summary covers the rest\n", failed, *reps)
		}
		var tput, goodput, retrans, timeouts stats.Sample
		for _, rec := range recs {
			for c, col := range []*stats.Sample{&tput, &goodput, &retrans, &timeouts} {
				col.Add(math.Float64frombits(rec.Values[c]))
			}
		}
		if *jsonOut {
			return emitJSON(stdout, cfg, &tput, &goodput, &retrans, &timeouts, last)
		}
		fmt.Fprintf(stdout, "throughput   %.2f Kbps (sd %.1f%%)\n", tput.Mean(), 100*tput.RelStdDev())
		fmt.Fprintf(stdout, "goodput      %.3f\n", goodput.Mean())
		fmt.Fprintf(stdout, "retransmitted %.1f KB\n", retrans.Mean())
		fmt.Fprintf(stdout, "timeouts     %.1f\n", timeouts.Mean())

		if *verbose && last != nil {
			fmt.Fprintf(stdout, "\nlast replication detail:\n")
			fmt.Fprintf(stdout, "  sender:   %+v\n", last.Sender)
			fmt.Fprintf(stdout, "  sink:     %+v\n", last.Sink)
			fmt.Fprintf(stdout, "  bs:       %+v\n", last.BS)
			fmt.Fprintf(stdout, "  mobile:   %+v\n", last.Mobile)
			fmt.Fprintf(stdout, "  downlink: %+v\n", last.WirelessDown)
			fmt.Fprintf(stdout, "  uplink:   %+v\n", last.WirelessUp)
			if last.Chaos != nil {
				fmt.Fprintf(stdout, "  chaos:    %+v\n", *last.Chaos)
			}
		}
		return nil
	}
}

// simScenario holds wtcp sim's scenario flags. -scheme, -variant, -lan,
// -packet, -bad, -good, -transfer and -seed are scenario.File fields, 0
// or unset keeping the preset's value as in a scenario file; -config
// reads the whole File from JSON instead, and refuses those flags
// beside it; -checks and -strict apply to the configuration either
// builds.
type simScenario struct {
	file       scenario.File
	bad, good  time.Duration
	lan        bool
	configPath string
	checks     bool
	strict     bool
}

// declare declares the scenario flags on fs.
func (sc *simScenario) declare(fs *flag.FlagSet) {
	fs.StringVar(&sc.file.Scheme, "scheme", "basic", "base-station scheme: basic|localrecovery|ebsn|sourcequench|snoop|split")
	fs.StringVar(&sc.file.Variant, "variant", "tahoe", "TCP sender variant: tahoe|reno|newreno|sack")
	fs.IntVar(&sc.file.PacketSizeBytes, "packet", 0, "wired packet size in bytes, 40-byte header included (0 = paper preset: 576 wide-area, 1536 local-area)")
	fs.DurationVar(&sc.bad, "bad", 2*time.Second, "mean bad-period length")
	fs.DurationVar(&sc.good, "good", 0, "mean good-period length (0 = paper preset)")
	fs.Int64Var(&sc.file.TransferKB, "transfer", 0, "transfer size in KB (0 = paper preset)")
	fs.BoolVar(&sc.lan, "lan", false, "use the local-area preset instead of wide-area")
	fs.StringVar(&sc.configPath, "config", "", "JSON scenario file (overrides the scenario flags)")
	fs.Int64Var(&sc.file.Seed, "seed", 1, "base random seed")
	fs.BoolVar(&sc.checks, "checks", false, "enable runtime invariant checking (also arms the no-progress watchdog)")
	fs.BoolVar(&sc.strict, "strict", false, "arm the protocol-conformance oracle: abort the run on the first Tahoe/ARQ/EBSN rule violation, naming the rule and event")
}

// config builds the configuration the flags parsed on fs name: the
// scenario File (-config's, or the one the flags fill) through
// File.Build, then -checks and -strict, which switch checking on.
func (sc *simScenario) config(fs *flag.FlagSet) (core.Config, error) {
	sf := sc.file
	sf.MeanBad = sc.bad.String()
	if sc.good != 0 {
		sf.MeanGood = sc.good.String()
	}
	if sc.lan {
		sf.Preset = "lan"
	}
	if sc.configPath != "" {
		if set := setFlags(fs, "scheme", "variant", "packet", "bad", "good", "transfer", "lan", "seed"); len(set) > 0 {
			return core.Config{}, fmt.Errorf("-config takes the whole scenario from %s; drop %s or set it in the file",
				sc.configPath, strings.Join(set, " "))
		}
		raw, err := os.ReadFile(sc.configPath)
		if err != nil {
			return core.Config{}, fmt.Errorf("read scenario: %w", err)
		}
		if sf, err = scenario.ParseFile(raw); err != nil {
			return core.Config{}, fmt.Errorf("scenario %s: %w", sc.configPath, err)
		}
	}
	cfg, err := sf.Build()
	if err != nil && sc.configPath != "" {
		err = fmt.Errorf("scenario %s: %w", sc.configPath, err)
	}
	if err != nil {
		return core.Config{}, err
	}
	if sc.configPath == "" {
		cfg.Seed = sf.Seed // -seed 0 runs seed 0, where a file's 0 keeps the preset's
	}
	cfg.Checks = cfg.Checks || sc.checks
	cfg.Oracle = sc.strict
	return cfg, nil
}

// setFlags returns, as "-name" in the flag set's order, those of names
// given on fs's command line.
func setFlags(fs *flag.FlagSet, names ...string) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

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

// runCellMode executes one cell-scale simulation (wtcp sim -cell N): the
// flat struct-of-arrays engine simulating N concurrent flows across
// sharded base stations, scenario presets at 1k/10k/50k and anywhere in
// between.
func runCellMode(ctx context.Context, stdout io.Writer, opt cellOptions) error {
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
	res, err := cell.RunContext(ctx, cfg, opt.budget)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if opt.jsonOut {
		return json.NewEncoder(stdout).Encode(map[string]any{
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
	fmt.Fprintf(stdout, "cell: %d flows on %d base stations, %s scheduling, bad=%v\n",
		cfg.Flows, cfg.BaseStations, cfg.Policy, cfg.Channel.MeanBad)
	fmt.Fprintf(stdout, "completed    %d/%d flows in %v virtual\n", res.CompletedFlows, cfg.Flows, cfg.Horizon)
	fmt.Fprintf(stdout, "aggregate    %.1f Kbps (fairness %.3f)\n", res.AggregateKbps, res.Fairness)
	fmt.Fprintf(stdout, "radio        %d attempts, %d discards, %d EBSNs\n",
		res.RadioAttempts, res.RadioDiscards, res.EBSNsSent)
	fmt.Fprintf(stdout, "source       %d timeouts, %d queue drops\n", res.TotalTimeouts, res.QueueDrops)
	fmt.Fprintf(stdout, "engine       %d events in %v wall (%.0f ev/s), peak %d packets live, %d events pending\n",
		res.Events, wall.Round(time.Millisecond), float64(res.Events)/wall.Seconds(), res.Arena.PeakLive, res.CalendarPeak)
	return nil
}

// jsonResult is the machine-readable output of wtcp sim -json.
type jsonResult struct {
	Scheme          string  `json:"scheme"`
	PacketSizeBytes int64   `json:"packet_size_bytes"`
	TransferBytes   int64   `json:"transfer_bytes"`
	MeanGoodSec     float64 `json:"mean_good_sec"`
	MeanBadSec      float64 `json:"mean_bad_sec"`
	TputThKbps      float64 `json:"tput_th_kbps"`
	Replications    int     `json:"replications"`

	ThroughputKbpsMean   float64 `json:"throughput_kbps_mean"`
	ThroughputKbpsStddev float64 `json:"throughput_kbps_stddev"`
	GoodputMean          float64 `json:"goodput_mean"`
	RetransKBMean        float64 `json:"retrans_kb_mean"`
	TimeoutsMean         float64 `json:"timeouts_mean"`

	LastReplication *jsonComponents `json:"last_replication,omitempty"`
}

// jsonComponents carries the per-component counters of the final
// replication for deeper post-processing.
type jsonComponents struct {
	SenderSegments   uint64 `json:"sender_segments"`
	SenderRetrans    uint64 `json:"sender_retrans_segments"`
	FastRetransmits  uint64 `json:"fast_retransmits"`
	EBSNResets       uint64 `json:"ebsn_resets"`
	ARQAttempts      uint64 `json:"arq_attempts"`
	ARQDiscards      uint64 `json:"arq_discards"`
	DownlinkCorrupt  uint64 `json:"downlink_corrupted"`
	UplinkCorrupt    uint64 `json:"uplink_corrupted"`
	SinkSegments     uint64 `json:"sink_segments"`
	SinkDuplicates   uint64 `json:"sink_duplicates"`
	MobileLinkAcks   uint64 `json:"mobile_link_acks"`
	MobileGapFlushes uint64 `json:"mobile_gap_flushes"`
	// Occupancy high-water marks of the per-packet working sets.
	BSHeldPeak         int `json:"bs_held_peak"`
	SnoopCachePeak     int `json:"snoop_cache_peak"`
	ReorderPeak        int `json:"mobile_reorder_peak"`
	ReassemblyOpenPeak int `json:"mobile_reassembly_open_peak"`
	SinkBufferedPeak   int `json:"sink_buffered_peak"`
}

// emitJSON prints the aggregated run as one JSON document.
func emitJSON(stdout io.Writer, cfg core.Config, tput, goodput, retrans, timeouts *stats.Sample, last *core.Result) error {
	out := jsonResult{
		Scheme:               cfg.Scheme.String(),
		PacketSizeBytes:      int64(cfg.PacketSize),
		TransferBytes:        int64(cfg.TransferSize),
		MeanGoodSec:          cfg.Channel.MeanGood.Seconds(),
		MeanBadSec:           cfg.Channel.MeanBad.Seconds(),
		TputThKbps:           cfg.TheoreticalMaxKbps(),
		Replications:         tput.N(),
		ThroughputKbpsMean:   tput.Mean(),
		ThroughputKbpsStddev: tput.StdDev(),
		GoodputMean:          goodput.Mean(),
		RetransKBMean:        retrans.Mean(),
		TimeoutsMean:         timeouts.Mean(),
	}
	if last != nil {
		out.LastReplication = &jsonComponents{
			SenderSegments:   last.Sender.SegmentsSent,
			SenderRetrans:    last.Sender.RetransSegments,
			FastRetransmits:  last.Sender.FastRetransmits,
			EBSNResets:       last.Sender.EBSNResets,
			ARQAttempts:      last.BS.ARQAttempts,
			ARQDiscards:      last.BS.ARQDiscards,
			DownlinkCorrupt:  last.WirelessDown.Corrupted,
			UplinkCorrupt:    last.WirelessUp.Corrupted,
			SinkSegments:     last.Sink.SegmentsReceived,
			SinkDuplicates:   last.Sink.DuplicateSegments,
			MobileLinkAcks:   last.Mobile.LinkAcksSent,
			MobileGapFlushes: last.Mobile.GapFlushes,

			BSHeldPeak:         last.BS.HeldPeak,
			SnoopCachePeak:     last.BS.SnoopCachePeak,
			ReorderPeak:        last.Mobile.ReorderPeak,
			ReassemblyOpenPeak: last.Mobile.ReassemblyOpenPeak,
			SinkBufferedPeak:   last.Sink.BufferedPeak,
		}
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(enc))
	return nil
}
