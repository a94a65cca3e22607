package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/experiment"
	"wtcp/internal/trace"
)

// traceFlags declares wtcp trace, which reproduces the paper's
// packet-trace figures (Figures 3-5): a 576-byte-packet transfer over the
// deterministic good-10s/bad-4s channel, plotted as packet number (mod
// 90) against send time.
//
//	wtcp trace -scheme basic          # Figure 3
//	wtcp trace -scheme localrecovery  # Figure 4
//	wtcp trace -scheme ebsn -csv      # Figure 5 as CSV
func traceFlags(fs *flag.FlagSet) body {
	var (
		schemeName = fs.String("scheme", "basic", "scheme: basic (Fig 3) | localrecovery (Fig 4) | ebsn (Fig 5) | sourcequench | snoop")
		horizon    = fs.Duration("horizon", 60*time.Second, "observation window")
		width      = fs.Int("width", 100, "plot width in characters")
		height     = fs.Int("height", 30, "plot height in characters")
		csv        = fs.Bool("csv", false, "emit CSV scatter data instead of ASCII art")
		cwnd       = fs.Bool("cwnd", false, "plot congestion-window evolution instead of the packet trace")
		compare    = fs.Bool("compare", false, "render basic TCP and EBSN side by side (Figures 3 vs 5)")
	)
	return func(_ context.Context, _ experiment.Options, stdout, _ io.Writer) error {
		if *compare {
			basic, err := experiment.TraceFigure(bs.Basic, *horizon)
			if err != nil {
				return err
			}
			ebsn, err := experiment.TraceFigure(bs.EBSN, *horizon)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, trace.RenderComparison(
				fmt.Sprintf("Fig 3: basic TCP (%d timeouts)", basic.Summary.Timeouts), basic.Trace,
				fmt.Sprintf("Fig 5: EBSN (%d timeouts)", ebsn.Summary.Timeouts), ebsn.Trace,
				*width/2, *height, *horizon))
			return nil
		}
		scheme, err := bs.ParseScheme(*schemeName)
		if err != nil {
			return err
		}
		r, err := experiment.TraceFigure(scheme, *horizon)
		if err != nil {
			return err
		}
		if *cwnd {
			if *csv {
				fmt.Fprint(stdout, r.Cwnd.CSV())
				return nil
			}
			fmt.Fprintf(stdout, "congestion window evolution: %s, deterministic channel good=10s bad=4s\n", scheme)
			fmt.Fprint(stdout, r.Cwnd.RenderASCII(*width, *height, *horizon))
			fmt.Fprintf(stdout, "window collapses to one segment: %d\n", r.Cwnd.Collapses(536))
			return nil
		}
		if *csv {
			fmt.Fprint(stdout, r.Trace.CSV())
			return nil
		}
		fmt.Fprintf(stdout, "packet trace: %s, deterministic channel good=10s bad=4s, 576B packets, 4KB window\n", scheme)
		fmt.Fprint(stdout, r.Trace.RenderASCII(*width, *height, *horizon))
		fmt.Fprintf(stdout, "source timeouts %d | source retransmissions %d | fast retransmits %d | EBSN resets %d\n",
			r.Summary.Timeouts, r.Sender.RetransSegments, r.Summary.FastRetransmits, r.Summary.EBSNResets)
		return nil
	}
}
