package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"wtcp/internal/experiment"
	"wtcp/internal/repro"
)

// result is the -json output shape of wtcp repro.
type result struct {
	Bundle      string        `json:"bundle"`
	Origin      string        `json:"origin,omitempty"`
	WantKind    string        `json:"want_kind"`
	GotKind     string        `json:"got_kind"`
	BudgetKind  string        `json:"budget_kind,omitempty"`
	BudgetLimit int64         `json:"budget_limit,omitempty"`
	BudgetValue int64         `json:"budget_value,omitempty"`
	Failure     string        `json:"failure,omitempty"`
	Reproduced  bool          `json:"reproduced"`
	Shrink      *shrinkResult `json:"shrink,omitempty"`
}

type shrinkResult struct {
	Replays  int    `json:"replays"`
	Accepted int    `json:"accepted"`
	Out      string `json:"out,omitempty"`
}

// reproFlags declares wtcp repro, which replays and minimizes failure
// bundles captured by the experiment engine (wtcp figures or wtcp report
// with -repro, or any caller of internal/repro).
//
// A bundle is a self-contained JSON scenario: config, seed, chaos plan,
// and the failure it produced. Because every simulation is deterministic
// in (config, seed), replaying the bundle re-derives the failure exactly
// — on any machine, with no sweep context.
//
//	wtcp repro -bundle repro-wan-basic.json            # replay, report
//	wtcp repro -bundle b.json -shrink -out min.json    # minimize first
//	wtcp repro -bundle b.json -json                    # machine-readable
//
// It exits 2 when the bundle's failure does not reproduce (the defect is
// gone or the bundle is stale).
func reproFlags(fs *flag.FlagSet) body {
	var (
		bundlePath = fs.String("bundle", "", "bundle file to replay (required)")
		shrink     = fs.Bool("shrink", false, "minimize the scenario before the final replay")
		shrinkOut  = fs.String("out", "", "write the minimized bundle here (with -shrink)")
		replays    = fs.Int("replays", repro.DefaultShrinkReplays, "simulation budget for -shrink")
		asJSON     = fs.Bool("json", false, "emit the outcome as JSON")
	)
	return func(ctx context.Context, _ experiment.Options, out, _ io.Writer) error {
		if *bundlePath == "" {
			return errors.New("-bundle is required")
		}
		b, err := repro.Load(*bundlePath)
		if err != nil {
			return err
		}
		res := result{Bundle: *bundlePath, Origin: b.Origin, WantKind: b.Kind,
			BudgetKind: b.BudgetKind, BudgetLimit: b.BudgetLimit, BudgetValue: b.BudgetValue}
		if !*asJSON {
			fmt.Fprintf(out, "bundle: %s\n", *bundlePath)
			if b.Origin != "" {
				fmt.Fprintf(out, "origin: %s\n", b.Origin)
			}
			fmt.Fprintf(out, "captured failure: [%s] %s\n", b.Kind, b.Failure)
			if b.Kind == repro.KindBudget {
				fmt.Fprintf(out, "budget: %s ceiling %d exhausted at %d\n", b.BudgetKind, b.BudgetLimit, b.BudgetValue)
			}
		}

		if *shrink {
			min, stats, err := repro.Shrink(ctx, b, *replays)
			if err != nil {
				return err
			}
			res.Shrink = &shrinkResult{Replays: stats.Replays, Accepted: stats.Accepted}
			if !*asJSON {
				fmt.Fprintf(out, "shrink: %d replays, %d simplifications kept (transfer %v, horizon %v)\n",
					stats.Replays, stats.Accepted, min.Config.TransferSize, min.Config.Horizon)
			}
			if *shrinkOut != "" {
				if err := min.Save(*shrinkOut); err != nil {
					return err
				}
				res.Shrink.Out = *shrinkOut
				if !*asJSON {
					fmt.Fprintf(out, "wrote minimized bundle to %s\n", *shrinkOut)
				}
			}
			b = min
		}

		o, err := repro.Replay(ctx, b)
		if err != nil {
			return err
		}
		res.GotKind = o.Kind
		res.Failure = o.Failure
		res.Reproduced = o.Matches(b)
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return err
			}
		} else if res.Reproduced {
			fmt.Fprintf(out, "reproduced: [%s] %s\n", o.Kind, o.Failure)
		} else {
			fmt.Fprintf(out, "NOT reproduced: replay finished as [%s], bundle recorded [%s]\n", o.Kind, b.Kind)
		}
		if !res.Reproduced {
			return errNotReproduced
		}
		return nil
	}
}
