package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// golden is one canonical run. The set spans both paper environments
// and both instrumentation surfaces: sender-only traces (basic) and the
// full ARQ/notification stream (local recovery, EBSN).
type golden struct {
	name  string
	build func() core.Config
}

// goldens are replayed in order; each produces <name>.golden.
var goldens = []golden{
	{"wan-basic", func() core.Config {
		cfg := core.WAN(bs.Basic, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		return cfg
	}},
	{"wan-ebsn", func() core.Config {
		cfg := core.WAN(bs.EBSN, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		return cfg
	}},
	{"lan-local", func() core.Config {
		cfg := core.LAN(bs.LocalRecovery, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		return cfg
	}},
	{"lan-ebsn", func() core.Config {
		cfg := core.LAN(bs.EBSN, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		return cfg
	}},

	// Protocol zoo: one golden per sender variant on the canonical WAN
	// and LAN channels, plus the Snoop and split-connection topologies.
	// Each runs under its own variant's conformance profile.
	{"wan-reno", func() core.Config {
		cfg := core.WAN(bs.Basic, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		cfg.Variant = tcp.Reno
		return cfg
	}},
	{"wan-newreno", func() core.Config {
		cfg := core.WAN(bs.Basic, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		cfg.Variant = tcp.NewReno
		return cfg
	}},
	{"wan-sack", func() core.Config {
		cfg := core.WAN(bs.Basic, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		cfg.Variant = tcp.SACKVariant
		return cfg
	}},
	{"wan-snoop", func() core.Config {
		cfg := core.WAN(bs.Snoop, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		return cfg
	}},
	{"wan-split", func() core.Config {
		cfg := core.WAN(bs.SplitConnection, 576, 2*time.Second)
		cfg.TransferSize = 20 * units.KB
		return cfg
	}},
	{"lan-reno", func() core.Config {
		cfg := core.LAN(bs.Basic, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		cfg.Variant = tcp.Reno
		return cfg
	}},
	{"lan-newreno", func() core.Config {
		cfg := core.LAN(bs.Basic, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		cfg.Variant = tcp.NewReno
		return cfg
	}},
	{"lan-sack", func() core.Config {
		cfg := core.LAN(bs.Basic, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		cfg.Variant = tcp.SACKVariant
		return cfg
	}},
	{"lan-snoop", func() core.Config {
		cfg := core.LAN(bs.Snoop, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		return cfg
	}},
	{"lan-split", func() core.Config {
		cfg := core.LAN(bs.SplitConnection, 800*time.Millisecond)
		cfg.TransferSize = 128 * units.KB
		return cfg
	}},
}

// conformanceFlags declares wtcp conformance, the golden-trace regression
// gate: it replays the canonical scenarios with the conformance oracle
// armed, renders each run's event trace in the stable golden encoding
// (internal/trace), and diffs the result against the committed golden
// files. Any drift — a reordered event, a changed congestion-window
// value, a shifted timestamp beyond tolerance — fails the gate with the
// first divergent event.
//
//	wtcp conformance                 # compare against committed goldens
//	wtcp conformance -update         # regenerate the goldens
//
// Regenerate deliberately (make goldens) after a change that is supposed
// to alter protocol behaviour, and review the golden diff like code.
func conformanceFlags(fs *flag.FlagSet) body {
	var (
		dir    = fs.String("dir", "cmd/wtcp/testdata/goldens", "golden directory (the default is relative to the repository root)")
		update = fs.Bool("update", false, "rewrite the goldens from fresh runs instead of comparing")
	)
	return func(_ context.Context, _ experiment.Options, stdout, stderr io.Writer) error {
		if *update {
			if err := os.MkdirAll(*dir, 0o755); err != nil {
				return err
			}
		}
		failed := 0
		for _, g := range goldens {
			if err := checkGolden(stdout, g, *dir, *update); err != nil {
				var drift *driftError
				if !errors.As(err, &drift) {
					return fmt.Errorf("%s: %w", g.name, err)
				}
				fmt.Fprintf(stderr, "%s: %v\n", g.name, err)
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d scenarios drifted from their goldens (rerun with -update if the change is intended, and review the golden diff)", failed, len(goldens))
		}
		return nil
	}
}

// driftError marks a golden mismatch (as opposed to a run or IO failure),
// so the gate reports every drifted scenario before failing.
type driftError struct{ msg string }

func (e *driftError) Error() string { return e.msg }

// checkGolden replays one scenario and updates or checks its golden.
func checkGolden(stdout io.Writer, g golden, dir string, update bool) error {
	cfg := g.build()
	cfg.CollectTrace = true
	cfg.Oracle = true // goldens must be born conformant
	res, err := core.Run(cfg)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if !res.Completed {
		return fmt.Errorf("transfer did not complete (horizon %v)", cfg.Horizon)
	}
	encoded := res.Trace.Encode()
	path := filepath.Join(dir, g.name+".golden")

	if update {
		if err := os.WriteFile(path, []byte(encoded), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d events)\n", path, res.Trace.Count(trace.Send)+res.Trace.Count(trace.Retransmit))
		return nil
	}

	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("missing golden (run with -update to create it): %w", err)
	}
	if string(want) == encoded {
		fmt.Fprintf(stdout, "%s: ok\n", g.name)
		return nil
	}
	// The bytes drifted; decode both sides for an event-level diff. The
	// fresh events are normalized to the encoding's microsecond grid so
	// the comparison sees real divergence, not rounding.
	_, wantEvents, derr := trace.DecodeEvents(string(want))
	if derr != nil {
		return &driftError{fmt.Sprintf("golden is unreadable (%v); regenerate with -update", derr)}
	}
	got := trace.NormalizeEvents(res.Trace.Events())
	if d := trace.DiffEvents(wantEvents, got, 0); d != nil {
		return &driftError{fmt.Sprintf("trace drifted: %v (golden has %d events, run has %d)", d, len(wantEvents), len(got))}
	}
	return &driftError{"encoding drifted with no event-level divergence (header or formatting change); regenerate with -update"}
}
