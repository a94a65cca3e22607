// Package report generates a self-auditing replication report: it runs
// the full experiment suite at a chosen fidelity, renders every result
// table as markdown, and checks each of the paper's qualitative claims
// against the fresh measurements, marking it reproduced or not.
//
// The report is the artifact a reviewer would ask for: numbers and
// verdicts produced by the same binary, no hand-copied tables.
package report

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/cell"
	"wtcp/internal/chaos"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// claim is one checked reproduction statement.
type claim struct {
	text string
	ok   bool
	note string
}

// verdicts is the report's claims, in the order they are checked.
type verdicts []claim

func (v *verdicts) add(text string, ok bool, noteFormat string, args ...any) {
	*v = append(*v, claim{text: text, ok: ok, note: fmt.Sprintf(noteFormat, args...)})
}

// addOn adds a claim read off table cells: when a quarantine left one of
// them out (cells is false), the claim is not reproduced rather than
// judged against a zero.
func (v *verdicts) addOn(cells bool, text string, ok bool, noteFormat string, args ...any) {
	if !cells {
		ok, noteFormat, args = false, "point quarantined", nil
	}
	v.add(text, ok, noteFormat, args...)
}

// wan checks the Figure 7 and 8 claims at bad, the longest bad period,
// between the smallest and the largest packet size.
func (v *verdicts) wan(fig7, fig8 []experiment.ThroughputPoint, bad time.Duration, small, large units.ByteSize, quick bool) {
	const kbps = "throughput (Kbps)"
	b1536, okB1536 := experiment.ThroughputTable.Cell(fig7, kbps, bs.Basic, bad, large)
	e128, okE128 := experiment.ThroughputTable.Cell(fig8, kbps, bs.EBSN, bad, small)
	e1536, okE1536 := experiment.ThroughputTable.Cell(fig8, kbps, bs.EBSN, bad, large)
	th, _ := experiment.ThroughputTable.Cell(fig8, "tput_th", bs.EBSN, bad, large)

	// Single-point comparisons are statistically fragile at quick scale
	// (small transfers, few replications); they are only adjudicated at
	// full fidelity, where the paper's sweeps run.
	if !quick {
		optSize, _ := experiment.OptimalPacketSize(fig7, bad)
		v.addOn(okB1536, "Fig 7: basic TCP's optimal packet size is interior (not the largest size)",
			optSize != large, "optimum at %v", optSize)
		v.addOn(okB1536 && okE1536, "Figs 7 vs 8: EBSN beats basic TCP at the largest packet size",
			e1536 > b1536, "%.2f vs %.2f (+%.0f%%)", e1536, b1536, 100*(e1536-b1536)/b1536)
	}
	// Robust aggregate claims, checked at every fidelity.
	tput := func(p experiment.ThroughputPoint) float64 { return p.ThroughputKbps.Mean() }
	b7, ok7 := average(fig7, tput)
	th7, _ := average(fig7, func(p experiment.ThroughputPoint) float64 { return p.TheoreticalMaxKbps })
	e8, ok8 := average(fig8, tput)
	v.addOn(ok7, "Fig 7: basic TCP sits well below the theoretical maximum",
		b7 < 0.9*th7, "mean %.2f vs mean tput_th %.2f", b7, th7)
	v.addOn(okE128 && okE1536, "Fig 8: EBSN throughput rises with packet size",
		e1536 > e128, "%.2f (small) -> %.2f (large) at bad=%v", e128, e1536, bad)
	v.addOn(okE1536, "Fig 8: EBSN approaches tput_th for large packets (>= 80%)",
		e1536 >= 0.8*th, "%.2f of %.2f", e1536, th)
	v.addOn(ok7 && ok8, "Figs 7 vs 8: EBSN beats basic TCP on average across the sweep",
		e8 > b7, "%.2f vs %.2f", e8, b7)
}

// Generate runs the suite under opt and returns the markdown report.
// Every run is oracle-gated whatever opt says; quick shrinks the sweeps
// (fewer packet sizes and bad periods, smaller transfers) for fast
// CI-style runs. A pathological point is quarantined into its own report
// section, read from opt.Health (a fresh one when nil), instead of
// failing the report.
// ctx cancels the underlying simulations cleanly at their next event
// boundary; with opt.Checkpoint set, rerunning after a cancellation
// resumes from the finished sweep points. The WAN sweeps use that path as
// given; a study that runs under different result-affecting options gets
// a sibling file named by experiment.CheckpointFor.
func Generate(ctx context.Context, opt experiment.Options, quick bool) (string, error) {
	opt = opt.WithDefaults()
	if opt.Health == nil {
		opt.Health = experiment.NewHealth()
	}
	var b strings.Builder
	var claims verdicts

	// opt is what every figure and study below runs under; each derives
	// its own transfer size and axes from it. Every reported number comes
	// from an oracle-gated run: a Tahoe, ARQ, or EBSN rule violation
	// anywhere in a sweep fails the report instead of silently skewing a
	// table.
	opt.Oracle = true
	wanOpt, lanOpt := opt, opt
	if quick {
		wanOpt.Transfer = 40 * units.KB
		wanOpt.PacketSizes = []units.ByteSize{128, 512, 1024, 1536}
		wanOpt.BadPeriods = []time.Duration{time.Second, 4 * time.Second}
		lanOpt.Transfer = units.MB
		lanOpt.BadPeriods = []time.Duration{400 * time.Millisecond, 1600 * time.Millisecond}
	}
	// One -checkpoint path, one ledger file per options fingerprint: the
	// WAN sweeps keep the path as given, whatever differs from them gets
	// its derived sibling (experiment.CheckpointFor).
	lanOpt.Checkpoint = experiment.CheckpointFor(opt.Checkpoint, wanOpt, lanOpt)
	study := func(transfer units.ByteSize) experiment.Options {
		o := opt
		o.Transfer = transfer
		o.Checkpoint = experiment.CheckpointFor(opt.Checkpoint, wanOpt, o)
		return o
	}

	b.WriteString("# Replication report: TCP over Wireless Networks (TR-96-014 / ICDCS'97)\n\n")
	fmt.Fprintf(&b, "Generated by `wtcp report` — replications per point: %d, quick mode: %v.\n\n",
		opt.Replications, quick)

	// --- Figures 3-5: deterministic traces --------------------------------
	b.WriteString("## Figures 3-5 — deterministic-channel packet traces\n\n")
	b.WriteString("| scheme | source timeouts | source retransmissions | EBSN resets |\n")
	b.WriteString("| --- | --- | --- | --- |\n")
	traces := map[bs.Scheme]*struct{ to, retx, ebsn uint64 }{}
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
		r, err := experiment.TraceFigure(scheme, 60*time.Second)
		if err != nil {
			return "", err
		}
		traces[scheme] = &struct{ to, retx, ebsn uint64 }{
			r.Summary.Timeouts, r.Sender.RetransSegments, r.Summary.EBSNResets,
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n",
			scheme, r.Summary.Timeouts, r.Sender.RetransSegments, r.Summary.EBSNResets)
	}
	b.WriteString("\n")
	claims.add("Fig 3: basic TCP suffers timeouts and source retransmissions during fades",
		traces[bs.Basic].to > 0 && traces[bs.Basic].retx > 0,
		"%d timeouts, %d retransmissions", traces[bs.Basic].to, traces[bs.Basic].retx)
	claims.add("Fig 4: local recovery masks fades (fewer source retransmissions than basic)",
		traces[bs.LocalRecovery].retx < traces[bs.Basic].retx,
		"%d vs %d", traces[bs.LocalRecovery].retx, traces[bs.Basic].retx)
	claims.add("Fig 5: EBSN eliminates source timeouts entirely",
		traces[bs.EBSN].to == 0 && traces[bs.EBSN].ebsn > 0,
		"%d timeouts, %d resets", traces[bs.EBSN].to, traces[bs.EBSN].ebsn)

	// --- Figures 7-8 -------------------------------------------------------
	b.WriteString("## Figures 7-8 — WAN throughput vs packet size (Kbps)\n\n")
	fig7, err := experiment.Fig7(ctx, wanOpt)
	if err != nil {
		return "", err
	}
	fig8, err := experiment.Fig8(ctx, wanOpt)
	if err != nil {
		return "", err
	}
	b.WriteString("### Basic TCP (Fig 7)\n\n" + experiment.ThroughputTable.Markdown(fig7) + "\n")
	b.WriteString("### EBSN (Fig 8)\n\n" + experiment.ThroughputTable.Markdown(fig8) + "\n")

	bads, sizes := wanOpt.WANBadAxis(), wanOpt.SizeAxis()
	bad, small, large := bads[len(bads)-1], sizes[0], sizes[len(sizes)-1]
	claims.wan(fig7, fig8, bad, small, large, quick)

	// --- Figure 9 -----------------------------------------------------------
	b.WriteString("## Figure 9 — WAN retransmitted data (KB)\n\n")
	fig9, err := experiment.Fig9(ctx, wanOpt)
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.RetransTable.Markdown(fig9) + "\n")
	basicRetx, okBasic := experiment.RetransTable.Cell(fig9, "retransmitted (KB)", bs.Basic, bad, large)
	ebsnRetx, okEBSN := experiment.RetransTable.Cell(fig9, "retransmitted (KB)", bs.EBSN, bad, large)
	claims.addOn(okBasic && okEBSN, "Fig 9: EBSN retransmits far less than basic TCP",
		ebsnRetx < basicRetx/2, "%.1f KB vs %.1f KB", ebsnRetx, basicRetx)

	// --- Figures 10-11 ------------------------------------------------------
	b.WriteString("## Figures 10-11 — LAN throughput and retransmitted data\n\n")
	lanPoints, err := experiment.LANStudy(ctx, lanOpt)
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.LANTable.Markdown(lanPoints) + "\n")
	lanCells, lanOK, lanGoodput := true, true, true
	for _, bad := range lanOpt.LANBadAxis() {
		basic, okBasic := experiment.LANTable.Cell(lanPoints, "throughput (Mbps)", bs.Basic, bad)
		ebsn, okEBSN := experiment.LANTable.Cell(lanPoints, "throughput (Mbps)", bs.EBSN, bad)
		th, _ := experiment.LANTable.Cell(lanPoints, "tput_th (Mbps)", bs.EBSN, bad)
		lanCells = lanCells && okBasic && okEBSN
		lanOK = lanOK && ebsn > basic
		lanGoodput = lanGoodput && ebsn >= 0.85*th
	}
	claims.addOn(lanCells, "Fig 10: EBSN beats basic TCP at every LAN bad period", lanOK, "pointwise")
	claims.addOn(lanCells, "Fig 10: EBSN stays near tput_th (>= 85%)", lanGoodput, "pointwise")

	// --- Related work & extensions -----------------------------------------
	b.WriteString("## Related work and extensions\n\n")

	csdpPoints, err := experiment.CSDPStudy(ctx, study(256*units.KB), experiment.CSDPOptions{
		Connections: 4,
		BadPeriods:  []time.Duration{time.Second},
	})
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.CSDPTable.Markdown(csdpPoints) + "\n")
	const agg = "aggregate (Kbps)"
	fifo, okFIFO := experiment.CSDPTable.Cell(csdpPoints, agg, cell.FIFO, time.Second)
	rr, okRR := experiment.CSDPTable.Cell(csdpPoints, agg, cell.RoundRobin, time.Second)
	csdp, okCSDP := experiment.CSDPTable.Cell(csdpPoints, agg, cell.CSDP, time.Second)
	claims.addOn(okRR && okFIFO, "[Bhagwat 95]: round-robin beats FIFO under independent per-user fading",
		rr > fifo, "%.0f vs %.0f kbps", rr, fifo)
	claims.addOn(okCSDP && okRR, "[Bhagwat 95]: oracle CSDP at least matches round-robin",
		csdp >= 0.95*rr, "%.0f vs %.0f kbps", csdp, rr)

	handoffPoints, err := experiment.HandoffStudy(ctx, study(0), experiment.HandoffOptions{
		Dwells: []time.Duration{time.Second},
	})
	if err != nil {
		return "", err
	}
	hoPlain, okPlain := experiment.HandoffTable.Cell(handoffPoints, "throughput (Kbps)", "plain", time.Second)
	hoFR, okFR := experiment.HandoffTable.Cell(handoffPoints, "throughput (Kbps)", "fastretransmit", time.Second)
	hoFRTimeouts, _ := experiment.HandoffTable.Cell(handoffPoints, "timeouts", "fastretransmit", time.Second)
	if okPlain && okFR {
		fmt.Fprintf(&b, "Handoffs at 1 s dwell: plain %.0f kbps vs fast-retransmit %.0f kbps.\n\n", hoPlain, hoFR)
	}
	claims.addOn(okPlain && okFR, "[Caceres & Iftode 94]: fast retransmit on handoff beats plain TCP",
		hoFR > hoPlain && hoFRTimeouts == 0,
		"%.0f vs %.0f kbps, %d residual timeouts", hoFR, hoPlain, int(hoFRTimeouts))

	webBasic, err := core.RunWeb(core.WAN(bs.Basic, 576, 4*time.Second), core.WebWorkload{
		Pages: 8, PageSize: 8 * units.KB, ThinkTime: 2 * time.Second,
	})
	if err != nil {
		return "", err
	}
	webEBSN, err := core.RunWeb(core.WAN(bs.EBSN, 576, 4*time.Second), core.WebWorkload{
		Pages: 8, PageSize: 8 * units.KB, ThinkTime: 2 * time.Second,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Interactive extension — web page loads (8x8 KB): basic %.1f s mean / %.1f s p95, EBSN %.1f s / %.1f s.\n\n",
		webBasic.MeanLoadSec, webBasic.P95LoadSec, webEBSN.MeanLoadSec, webEBSN.P95LoadSec)
	claims.add("Extension: EBSN shortens interactive page loads",
		webEBSN.MeanLoadSec < webBasic.MeanLoadSec,
		"%.1f s vs %.1f s mean", webEBSN.MeanLoadSec, webBasic.MeanLoadSec)

	// The severity conjecture (§1/§6): EBSN's gain grows with lossiness.
	// Adjudicated at full fidelity only — the trend needs full-length
	// transfers to rise above per-run variance.
	if !quick {
		sevPoints, err := experiment.SeverityStudy(ctx, study(0), experiment.SeverityOptions{
			Severities: []experiment.SeverityStep{{1 * time.Second, 1e-2}, {4 * time.Second, 1e-2}},
		})
		if err != nil {
			return "", err
		}
		mild, okMild := experiment.SeverityTable.Cell(sevPoints, "improvement", time.Second, 1e-2)
		harsh, okHarsh := experiment.SeverityTable.Cell(sevPoints, "improvement", 4*time.Second, 1e-2)
		if okMild && okHarsh {
			fmt.Fprintf(&b, "Severity conjecture: EBSN improvement %.0f%% at bad=1s vs %.0f%% at bad=4s.\n\n", mild, harsh)
		}
		claims.addOn(okMild && okHarsh, "§1/§6 conjecture: EBSN's improvement grows as the link gets lossier",
			harsh > mild, "%.0f%% -> %.0f%%", mild, harsh)
	}

	// --- Protocol zoo -------------------------------------------------------
	b.WriteString(zooSection)
	zooTransfer := 100 * units.KB
	if quick {
		zooTransfer = 30 * units.KB
	}
	zooPoints, err := experiment.ZooStudy(ctx, study(zooTransfer), experiment.ZooOptions{BadPeriod: 4 * time.Second})
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.ZooTable.Markdown(zooPoints) + "\n")
	zooCells, zooSnoopOK, zooSplitOK, zooRan := true, true, true, 0
	for _, p := range zooPoints {
		if p.ThroughputKbps != nil {
			zooRan++
		}
	}
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		basic, okBasic := experiment.ZooTable.Cell(zooPoints, "throughput (Kbps)", v, bs.Basic)
		snoop, okSnoop := experiment.ZooTable.Cell(zooPoints, "throughput (Kbps)", v, bs.Snoop)
		split, okSplit := experiment.ZooTable.Cell(zooPoints, "throughput (Kbps)", v, bs.SplitConnection)
		zooCells = zooCells && okBasic && okSnoop && okSplit
		zooSnoopOK = zooSnoopOK && snoop >= 0.95*basic
		zooSplitOK = zooSplitOK && split > 0
	}
	claims.add("Protocol zoo: every variant x scheme cell ran oracle-clean under its own conformance profile",
		zooRan == len(zooPoints), "%d cells; a profile violation would have failed the report", zooRan)
	claims.addOn(zooCells, "[Balakrishnan 95]: Snoop local recovery at least matches the unassisted baseline for every sender variant",
		zooSnoopOK, "pointwise at bad=4s, tolerance 5%%")
	claims.addOn(zooCells, "[Bakre & Badrinath 94]: split-connection completes for every variant (at the cost of per-connection BS state)",
		zooSplitOK, "all four variants completed over the split topology")

	// --- Cell-scale simulation ----------------------------------------------
	b.WriteString("## Cell-scale simulation (struct-of-arrays engine)\n\n")
	b.WriteString("Beyond the paper's single connection: `internal/cell` simulates an\n")
	b.WriteString("entire base-station cell — 10k-100k concurrent TCP transfers — by\n")
	b.WriteString("holding per-flow sender/sink state in flat index-addressed slabs, data\n")
	b.WriteString("segments by value on the MSS grid, and every RTO timer on a single timer\n")
	b.WriteString("wheel. The protocol logic is a bit-identical port of the object-per-flow\n")
	b.WriteString("engines (`internal/cell/reference_test.go` keeps one and pins the equivalence\n")
	b.WriteString("with a differential test), so scale costs no fidelity. Reproduce this\n")
	b.WriteString("table with `wtcp sim -cell 1000` (or 10000, 50000; `make bench-scale`\n")
	b.WriteString("gates the engine's performance against `BENCH_scale.json`). The run\n")
	b.WriteString("below carries sampled conformance checkers (`OracleSample`): a Tahoe or\n")
	b.WriteString("ARQ rule violation on any sampled flow would fail this report.\n\n")
	cellCfg := cell.Preset(1000)
	cellCfg.OracleSample = 10
	cellCfg.Seed = opt.BaseSeed + 1
	cellRes, err := cell.RunContext(ctx, cellCfg, sim.Budget{WallClock: 2 * time.Minute, MaxHeapBytes: 1 << 30})
	if err != nil {
		return "", err
	}
	cellRes2, err := cell.RunContext(ctx, cellCfg, sim.Budget{})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "| flows | completed | aggregate (Kbps) | fairness | radio attempts | EBSNs | engine events | peak segments held | peak events pending |\n")
	fmt.Fprintf(&b, "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n")
	fmt.Fprintf(&b, "| %d | %d | %.0f | %.3f | %d | %d | %d | %d | %d |\n\n",
		cellCfg.Flows, cellRes.CompletedFlows, cellRes.AggregateKbps, cellRes.Fairness,
		cellRes.RadioAttempts, cellRes.EBSNsSent, cellRes.Events, cellRes.Arena.PeakLive, cellRes.CalendarPeak)
	claims.add("Cell scale: 1000 concurrent flows all complete inside the 60 s virtual horizon",
		cellRes.Completed, "%d of %d flows", cellRes.CompletedFlows, cellCfg.Flows)
	claims.add("Cell scale: every data segment the network held is retired by the end of the run",
		cellRes.Arena.LiveAtEnd == 0, "%d live at end", cellRes.Arena.LiveAtEnd)
	claims.add("Cell scale: sampled Tahoe/ARQ conformance checkers observed no violation",
		true, "%d flows sampled; a violation would have failed the run", cellCfg.OracleSample)
	claims.add("Cell scale: a cell run is bit-identical for a fixed seed",
		cellRes.Events == cellRes2.Events && cellRes.AggregateKbps == cellRes2.AggregateKbps &&
			cellRes.RadioAttempts == cellRes2.RadioAttempts,
		"two runs, one seed: %d events, %.3f Kbps", cellRes.Events, cellRes.AggregateKbps)

	// --- Fault injection & robustness ---------------------------------------
	b.WriteString("## Fault injection & robustness\n\n")
	b.WriteString("An adversarial scenario beyond the paper's error model: a 3 s wireless\n")
	b.WriteString("blackout, a base-station crash losing all ARQ state, and 50% EBSN\n")
	b.WriteString("notification loss, composed on one EBSN transfer with runtime invariant\n")
	b.WriteString("checking and the no-progress watchdog armed (`internal/chaos`).\n\n")
	chaosCfg := core.WAN(bs.EBSN, 576, 2*time.Second)
	chaosCfg.TransferSize = 30 * units.KB
	chaosCfg.Checks = true
	chaosCfg.Oracle = true
	chaosCfg.Seed = opt.BaseSeed + 7
	chaosCfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WirelessDown, At: 10 * time.Second, Length: 3 * time.Second}},
		Crashes:   []chaos.Crash{{At: 25 * time.Second, Downtime: 2 * time.Second}},
		Notify:    chaos.NotifyFaults{LossProb: 0.5},
	}
	chaosA, err := core.RunContext(ctx, chaosCfg)
	if err != nil {
		return "", err
	}
	chaosB, err := core.RunContext(ctx, chaosCfg)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "| outcome | throughput | timeouts | crashes | notifications lost |\n| --- | --- | --- | --- | --- |\n")
	outcome := "completed"
	if chaosA.Aborted {
		outcome = "aborted by watchdog"
	}
	fmt.Fprintf(&b, "| %s | %.2f Kbps | %d | %d | %d |\n\n",
		outcome, chaosA.Summary.ThroughputKbps, chaosA.Summary.Timeouts,
		chaosA.Chaos.Crashes, chaosA.Chaos.NotifyDropped)
	claims.add("Robustness: crash + EBSN loss + blackout neither panics nor violates an invariant",
		chaosA.Completed || chaosA.Aborted, "%s", outcome)
	claims.add("Robustness: a chaos run is bit-identical for a fixed seed",
		chaosA.Summary == chaosB.Summary && *chaosA.Chaos == *chaosB.Chaos,
		"two runs, one seed, identical metrics and fault counters")

	// Reaching this point means no oracle fired: every run above was armed.
	claims.add("Conformance: every sweep above ran with the protocol oracles armed and no rule fired",
		true, "oracle-gated runs; a violation would have failed the report")

	// --- Quarantined points ------------------------------------------------
	b.WriteString("## Quarantined points\n\n")
	if qs, n := opt.Health.Quarantined(); n == 0 {
		b.WriteString("No points were quarantined in this run.\n\n")
	} else {
		fmt.Fprintf(&b, "The circuit breaker removed %d point(s) from this run's sweeps; every\n", n)
		b.WriteString("other point is measured as usual. Tables above print a quarantined\n")
		b.WriteString("cell as `-`, and a claim that reads one is not reproduced.\n\n")
		b.WriteString(quarantineTable.Markdown(qs) + "\n")
		claims.add("Supervision: no sweep point was quarantined", false,
			"%d point(s) quarantined — inspect the table above", n)
	}

	// --- Verdicts -----------------------------------------------------------
	b.WriteString("## Claim-by-claim verdicts\n\n")
	b.WriteString("| claim | verdict | measured |\n| --- | --- | --- |\n")
	allOK := true
	for _, c := range claims {
		verdict := "reproduced"
		if !c.ok {
			verdict = "NOT reproduced"
			allOK = false
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.text, verdict, c.note)
	}
	b.WriteString("\n")
	if allOK {
		b.WriteString("**All checked claims reproduced.**\n")
	} else {
		b.WriteString("**Some claims were NOT reproduced — inspect the tables above.**\n")
	}
	return b.String(), nil
}

// zooSection introduces the protocol-zoo head-to-head study. Static
// text, kept in the generator so `make report` carries it into
// REPLICATION.md; the measured table and verdicts follow it.
const zooSection = `## Protocol zoo — senders and assistance schemes head-to-head

The paper argues from TCP-Tahoe, but its proposal competes against a
family of contemporaries: Reno-style fast recovery, NewReno's
partial-ACK retransmission, SACK's scoreboard, the Snoop agent's
transport-aware caching at the base station [Balakrishnan 95], and
I-TCP's split connection [Bakre & Badrinath 94]. The zoo study runs
every sender variant against every assistance scheme on the *same*
seeded Gilbert channel — same loss pattern, different recovery machinery
— so each table cell differs only in protocol. Reproduce one cell by
hand with ` + "`wtcp sim -variant sack -scheme snoop -bad 4s`" + `; sweep the
grid programmatically through ` + "`experiment.ZooStudy`" + `.

Every cell runs with the conformance oracle armed under that cell's own
profile: Tahoe runs are checked against the collapse-to-one-segment
rules, Reno/NewReno/SACK runs against fast-recovery inflation and
partial-ACK deflation rules, Snoop runs against the cache's
no-suppression-of-genuine-loss contract, and split runs carry one
checker per TCP half. The table below is therefore a comparison of
*verified* implementations, not just of numbers.

`

// AllReproduced reports whether a generated report ends with the
// all-clear marker (a convenience for tests and CI).
func AllReproduced(report string) bool {
	return strings.Contains(report, "**All checked claims reproduced.**")
}

// quarantineTable lists the points the circuit breaker removed, one row
// per point, each reason by its first line.
var quarantineTable = experiment.Table[experiment.Quarantine]{
	Keys: []experiment.Column[experiment.Quarantine]{
		{Head: "point", Value: func(q experiment.Quarantine) any { return "`" + q.Key + "`" }},
	},
	Values: []experiment.Column[experiment.Quarantine]{
		{Head: "class", Value: func(q experiment.Quarantine) any { return q.Class }},
		{Head: "attempts", Value: func(q experiment.Quarantine) any { return q.Attempts }},
		// Worker names which fleet worker hit the quarantine; a
		// sequential (single-process) run has no worker to blame.
		{Head: "worker", Value: func(q experiment.Quarantine) any { return cmp.Or(q.Worker, "(local)") }},
		{Head: "reason", Value: func(q experiment.Quarantine) any { return q.Reason }},
	},
}

// average is value's mean over the points a quarantine did not leave
// key-only, false when there are none.
func average(points []experiment.ThroughputPoint, value func(experiment.ThroughputPoint) float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, p := range points {
		if p.ThroughputKbps != nil {
			sum += value(p)
			n++
		}
	}
	return sum / float64(n), n > 0
}
