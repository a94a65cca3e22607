package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"wtcp/internal/experiment"
	"wtcp/internal/report"
)

// reportFlags declares wtcp report, which runs the full replication suite
// and prints a markdown report: every figure's table regenerated fresh,
// plus a claim-by-claim verdict list checking the paper's qualitative
// statements against the new measurements. It exits 2 if any checked
// claim fails to reproduce.
//
//	wtcp report > replication.md
//	wtcp report -quick          # CI-sized sweeps
//	wtcp report -checkpoint sweep.json -workers 4
func reportFlags(fs *flag.FlagSet) body {
	quick := fs.Bool("quick", false, "CI-sized sweeps (smaller transfers, fewer points)")
	return func(ctx context.Context, opt experiment.Options, stdout, _ io.Writer) error {
		md, err := report.Generate(ctx, opt, *quick)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, md)
		if !report.AllReproduced(md) {
			return errNotReproduced
		}
		return nil
	}
}
