package core_test

import (
	"fmt"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/stats"
	"wtcp/internal/units"
)

// Example runs the paper's headline comparison at its default operating
// point: a 100 KB transfer over the wide-area topology with 4 s mean
// fades, first with plain TCP-Tahoe and then with EBSN.
func Example() {
	basic, err := core.Run(core.WAN(bs.Basic, 576, 4*time.Second))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ebsn, err := core.Run(core.WAN(bs.EBSN, 576, 4*time.Second))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("basic timeouts > 0: %v\n", basic.Summary.Timeouts > 0)
	fmt.Printf("ebsn timeouts:      %d\n", ebsn.Summary.Timeouts)
	fmt.Printf("ebsn faster:        %v\n",
		ebsn.Summary.ThroughputKbps > basic.Summary.ThroughputKbps)
	// Output:
	// basic timeouts > 0: true
	// ebsn timeouts:      0
	// ebsn faster:        true
}

// ExampleConfig_TheoreticalMaxKbps shows the paper's tput_th values for
// the wide-area sweep.
func ExampleConfig_TheoreticalMaxKbps() {
	for _, bad := range []time.Duration{time.Second, 4 * time.Second} {
		cfg := core.WAN(bs.Basic, 576, bad)
		fmt.Printf("bad=%v tput_th=%.2f Kbps\n", bad, cfg.TheoreticalMaxKbps())
	}
	// Output:
	// bad=1s tput_th=11.64 Kbps
	// bad=4s tput_th=9.14 Kbps
}

// ExampleRun_deterministicTrace reproduces the Figure 5 claim: under the
// deterministic fade schedule, EBSN eliminates every source timeout.
func ExampleRun_deterministicTrace() {
	cfg := core.WAN(bs.EBSN, core.PaperWANPacketDefault, 4*time.Second)
	cfg.Channel.Deterministic = true
	cfg.CollectTrace = true
	r, err := core.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("timeouts=%d source-retransmissions=%d ebsn-resets>0: %v\n",
		r.Summary.Timeouts, r.Sender.RetransSegments, r.Summary.EBSNResets > 0)
	// Output:
	// timeouts=0 source-retransmissions=0 ebsn-resets>0: true
}

// Example_quickstart runs one 100 KB transfer over the paper's Figure 2
// topology — fixed host, 56 kbps wire, base station, 19.2 kbps radio
// (12.8 kbps effective), mobile host, with a bursty channel averaging
// 10 s good / 4 s bad — with basic TCP, then again with EBSN, and
// compares them.
func Example_quickstart() {
	const packetSize = 576 // the IP default the paper highlights
	badPeriod := 4 * time.Second

	basic, err := core.Run(core.WAN(bs.Basic, packetSize, badPeriod))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ebsn, err := core.Run(core.WAN(bs.EBSN, packetSize, badPeriod))
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	th := core.WAN(bs.Basic, packetSize, badPeriod).TheoreticalMaxKbps()
	fmt.Printf("100KB over a bursty wireless hop (mean good 10s, mean bad %v):\n\n", badPeriod)
	fmt.Printf("%-22s %12s %9s %12s %9s\n", "", "throughput", "goodput", "retransmit", "timeouts")
	print := func(name string, r *core.Result) {
		fmt.Printf("%-22s %9.2f Kbps %9.3f %9.1f KB %9d\n",
			name, r.Summary.ThroughputKbps, r.Summary.Goodput,
			r.Summary.RetransmittedKB(), r.Summary.Timeouts)
	}
	print("basic TCP", basic)
	print("TCP + EBSN", ebsn)
	fmt.Printf("\ntheoretical maximum (tput_th): %.2f Kbps\n", th)
	fmt.Printf("EBSN improvement: %.0f%%\n",
		100*(ebsn.Summary.ThroughputKbps-basic.Summary.ThroughputKbps)/basic.Summary.ThroughputKbps)
	// Output:
	// 100KB over a bursty wireless hop (mean good 10s, mean bad 4s):
	//
	//                          throughput   goodput   retransmit  timeouts
	// basic TCP                   3.37 Kbps     0.834      21.4 KB        13
	// TCP + EBSN                  8.30 Kbps     0.960       4.5 KB         0
	//
	// theoretical maximum (tput_th): 9.14 Kbps
	// EBSN improvement: 146%
}

// Example_schemes runs every base-station behaviour in the repository —
// basic forwarding, local recovery, EBSN, ICMP source quench (the
// paper's negative result), and a simplified snoop agent (related work)
// — under identical wide-area error conditions, averaged over
// replications.
func Example_schemes() {
	const reps = 5
	bad := 4 * time.Second
	fmt.Printf("100KB, 576B packets, mean good 10s / bad %v, %d replications\n\n", bad, reps)
	fmt.Printf("%-15s %12s %9s %12s %9s\n", "scheme", "throughput", "goodput", "retransmit", "timeouts")

	for _, scheme := range bs.Schemes() {
		var tput, goodput, retrans, timeouts stats.Sample
		for seed := int64(1); seed <= reps; seed++ {
			cfg := core.WAN(scheme, 576, bad)
			cfg.Seed = seed
			r, err := core.Run(cfg)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			if !r.Completed {
				fmt.Printf("%v seed %d did not complete\n", scheme, seed)
				return
			}
			tput.Add(r.Summary.ThroughputKbps)
			goodput.Add(r.Summary.Goodput)
			retrans.Add(r.Summary.RetransmittedKB())
			timeouts.Add(float64(r.Summary.Timeouts))
		}
		fmt.Printf("%-15s %7.2f Kbps %9.3f %9.1f KB %9.1f\n",
			scheme, tput.Mean(), goodput.Mean(), retrans.Mean(), timeouts.Mean())
	}

	th := core.WAN(bs.Basic, 576, bad).TheoreticalMaxKbps()
	fmt.Printf("\ntheoretical maximum: %.2f Kbps\n", th)
	fmt.Println(`
Reading the table (paper sections 2, 4.2, 5):
 - local recovery lifts throughput but the source still times out;
 - source quench throttles the window yet cannot stop those timeouts;
 - EBSN keeps resetting the retransmission timer and reaches ~tput_th
   with goodput ~1.0 and no state at the base station;
 - snoop keeps transport state at the base station and still struggles
   with long burst losses (its local timer interacts with the fade).`)
	// Output:
	// 100KB, 576B packets, mean good 10s / bad 4s, 5 replications
	//
	// scheme            throughput   goodput   retransmit  timeouts
	// basic              5.80 Kbps     0.868      16.7 KB       8.8
	// localrecovery      8.42 Kbps     0.933       8.0 KB       2.2
	// ebsn               8.63 Kbps     0.973       3.0 KB       0.2
	// sourcequench       8.52 Kbps     0.945       6.3 KB       2.2
	// snoop              6.37 Kbps     0.936       7.4 KB       2.2
	// split              4.54 Kbps     0.930      19.2 KB      19.2
	//
	// theoretical maximum: 9.14 Kbps
	//
	// Reading the table (paper sections 2, 4.2, 5):
	//  - local recovery lifts throughput but the source still times out;
	//  - source quench throttles the window yet cannot stop those timeouts;
	//  - EBSN keeps resetting the retransmission timer and reaches ~tput_th
	//    with goodput ~1.0 and no state at the base station;
	//  - snoop keeps transport state at the base station and still struggles
	//    with long burst losses (its local timer interacts with the fade).
}

// Example_lanEBSN reproduces the Figure 10/11 comparison at a few
// bad-period lengths. LAN round-trip times are tiny, so a TCP source is
// more exposed to spurious timeouts during local recovery — the paper's
// argument for why a wireless LAN is an ideal EBSN deployment.
func Example_lanEBSN() {
	run := func(cfg core.Config) *core.Result {
		r, err := core.Run(cfg)
		if err != nil || !r.Completed {
			panic(fmt.Sprintf("%v did not complete: %v", cfg.Scheme, err))
		}
		return r
	}
	fmt.Println("4MB transfer, 10 Mbps wire + 2 Mbps radio, 64KB window, 1536B packets")
	fmt.Printf("%-10s %-22s %-22s %10s\n", "bad", "basic TCP", "TCP + EBSN", "tput_th")
	for _, bad := range []time.Duration{
		400 * time.Millisecond, 800 * time.Millisecond,
		1200 * time.Millisecond, 1600 * time.Millisecond,
	} {
		basic := run(core.LAN(bs.Basic, bad))
		ebsn := run(core.LAN(bs.EBSN, bad))
		th := core.LAN(bs.Basic, bad).TheoreticalMaxKbps() / 1000
		fmt.Printf("%-10s %8.3f Mbps (%2d TO) %8.3f Mbps (%2d TO) %7.3f Mbps\n",
			bad,
			basic.Summary.ThroughputMbps, basic.Summary.Timeouts,
			ebsn.Summary.ThroughputMbps, ebsn.Summary.Timeouts,
			th)
	}
	fmt.Println("\nretransmitted data (the Figure 11 series):")
	for _, bad := range []time.Duration{800 * time.Millisecond, 1600 * time.Millisecond} {
		basic := run(core.LAN(bs.Basic, bad))
		ebsn := run(core.LAN(bs.EBSN, bad))
		fmt.Printf("  bad=%v: basic %.0f KB, EBSN %.0f KB (of %d KB sent)\n",
			bad, basic.Summary.RetransmittedKB(), ebsn.Summary.RetransmittedKB(),
			4*units.MB/units.KB)
	}
	// Output:
	// 4MB transfer, 10 Mbps wire + 2 Mbps radio, 64KB window, 1536B packets
	// bad        basic TCP              TCP + EBSN                tput_th
	// 400ms         1.433 Mbps (13 TO)    1.713 Mbps ( 0 TO)   1.818 Mbps
	// 800ms         1.372 Mbps (13 TO)    1.556 Mbps ( 0 TO)   1.667 Mbps
	// 1.2s          1.087 Mbps (18 TO)    1.424 Mbps ( 0 TO)   1.538 Mbps
	// 1.6s          1.123 Mbps (16 TO)    1.318 Mbps ( 0 TO)   1.429 Mbps
	//
	// retransmitted data (the Figure 11 series):
	//   bad=800ms: basic 248 KB, EBSN 0 KB (of 4096 KB sent)
	//   bad=1.6s: basic 260 KB, EBSN 0 KB (of 4096 KB sent)
}

// Example_interactive runs www-access — an application shape the
// paper's introduction motivates but evaluates only as bulk transfer —
// over the same lossy topology, and shows that EBSN's timer protection
// translates into user-visible latency: faster page loads.
func Example_interactive() {
	bad := 4 * time.Second
	fmt.Printf("wide-area preset, mean good 10s / bad %v\n\n", bad)

	fmt.Println("www-access: 10 pages of 8KB, 2s think time")
	fmt.Printf("%-14s %14s %14s %10s\n", "scheme", "mean load", "p95 load", "timeouts")
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
		r, err := core.RunWeb(core.WAN(scheme, 576, bad), core.WebWorkload{
			Pages: 10, PageSize: 8 * units.KB, ThinkTime: 2 * time.Second,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-14s %12.2fs %12.2fs %10d\n",
			scheme, r.MeanLoadSec, r.P95LoadSec, r.Timeouts)
	}

	fmt.Println(`
Bulk transfer hides latency behind throughput; interactive traffic exposes
it. A spurious timeout during local recovery not only collapses the window
— it adds a full backed-off RTO to whatever the user is waiting for. EBSN
removes exactly that term.`)
	// Output:
	// wide-area preset, mean good 10s / bad 4s
	//
	// www-access: 10 pages of 8KB, 2s think time
	// scheme              mean load       p95 load   timeouts
	// basic                 14.95s        30.63s         11
	// localrecovery         10.98s        14.57s          6
	// ebsn                   8.40s        12.14s          0
	//
	// Bulk transfer hides latency behind throughput; interactive traffic exposes
	// it. A spurious timeout during local recovery not only collapses the window
	// — it adds a full backed-off RTO to whatever the user is waiting for. EBSN
	// removes exactly that term.
}
