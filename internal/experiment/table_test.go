package experiment

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/cell"
	"wtcp/internal/core"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// tableCase is one study's table over a full synthetic grid of points.
type tableCase struct {
	name   string
	header string // the CSV header, the study's column list
	points int    // grid points, one CSV row each
	rows   int    // markdown rows below the header
	// csv and markdown render the grid, or with removed set, the grid
	// with one point a quarantine left out.
	csv, markdown func(removed bool) string
}

// studyCase renders points through table; remove returns a copy of
// points with one of them missing.
func studyCase[P any](name, header string, rows int, table Table[P], points []P, remove func([]P) []P) tableCase {
	pick := func(removed bool) []P {
		if removed {
			return remove(slices.Clone(points))
		}
		return points
	}
	return tableCase{name: name, header: header, points: len(points), rows: rows,
		csv:      func(removed bool) string { return table.CSV(pick(removed)) },
		markdown: func(removed bool) string { return table.Markdown(pick(removed)) },
	}
}

// dropSecond removes the second point: its keys all recur elsewhere in
// every grid below, so its row (or pivot cell) must stay and print "-".
func dropSecond[P any](points []P) []P { return slices.Delete(points, 1, 2) }

func sampleOf(vs ...float64) *stats.Sample {
	var s stats.Sample
	for _, v := range vs {
		s.Add(v)
	}
	return &s
}

// TestStudyTables: every figure's and side study's table prints its
// column list as the CSV header, one row per grid point, and a point a
// quarantine left out as "-" in markdown (its CSV row is left out).
func TestStudyTables(t *testing.T) {
	bads := []time.Duration{time.Second, 4 * time.Second}
	sizes := []units.ByteSize{128, 512, 1536}
	schemes := []bs.Scheme{bs.Basic, bs.EBSN}

	var wan []ThroughputPoint
	var retx []RetransPoint
	for _, scheme := range schemes {
		for _, bad := range bads {
			for _, size := range sizes {
				if scheme == bs.Basic {
					wan = append(wan, ThroughputPoint{Scheme: scheme, BadPeriod: bad, PacketSize: size,
						ThroughputKbps: sampleOf(5, 7), Goodput: sampleOf(0.9), TheoreticalMaxKbps: 9.14})
				}
				retx = append(retx, RetransPoint{Scheme: scheme, BadPeriod: bad, PacketSize: size,
					RetransKB: sampleOf(10, 20), Timeouts: sampleOf(2)})
			}
		}
	}
	var lan []LANPoint
	var congestion []CongestionPoint
	for _, scheme := range schemes {
		for _, bad := range bads {
			lan = append(lan, LANPoint{Scheme: scheme, BadPeriod: bad, ThroughputMbps: sampleOf(1.5, 1.7),
				RetransKB: sampleOf(3), Timeouts: sampleOf(0), TheoreticalMaxMbps: 1.6})
		}
		for _, load := range []float64{0, 0.3, 0.6} {
			congestion = append(congestion, CongestionPoint{Scheme: scheme, LoadFraction: load, ThroughputKbps: sampleOf(6, 8), Timeouts: sampleOf(1)})
		}
	}
	var csdp []CSDPPoint
	for _, policy := range []cell.Policy{cell.FIFO, cell.RoundRobin, cell.CSDP} {
		for _, bad := range bads {
			csdp = append(csdp, CSDPPoint{Policy: policy, BadPeriod: bad, AggregateKbps: sampleOf(800, 900), Fairness: sampleOf(0.99), Discards: sampleOf(4)})
		}
	}
	var handoff []HandoffPoint
	for _, scheme := range handoffSchemes {
		for _, dwell := range bads {
			handoff = append(handoff, HandoffPoint{Scheme: scheme.name, Dwell: dwell, ThroughputKbps: sampleOf(1368), Timeouts: sampleOf(0), FastRetx: sampleOf(1)})
		}
	}
	var severity []SeverityPoint
	for _, bad := range bads {
		severity = append(severity, SeverityPoint{MeanBad: bad, BadBER: 1e-2, BasicKbps: sampleOf(6), EBSNKbps: sampleOf(9), ImprovementPct: 50})
	}
	var zoo []ZooPoint
	for _, variant := range []tcp.Variant{tcp.Tahoe, tcp.SACKVariant} {
		for _, scheme := range []bs.Scheme{bs.Basic, bs.Snoop} {
			zoo = append(zoo, ZooPoint{Variant: variant, Scheme: scheme, ThroughputKbps: sampleOf(6), Goodput: sampleOf(0.9),
				Timeouts: sampleOf(2), RetransKB: sampleOf(5)})
		}
	}

	cases := []tableCase{
		studyCase("fig7", "scheme,bad_period_sec,packet_size_bytes,throughput_kbps_mean,throughput_kbps_stddev,goodput_mean,tput_th_kbps",
			len(sizes)+1, ThroughputTable, wan, dropSecond),
		studyCase("fig9", "scheme,bad_period_sec,packet_size_bytes,retrans_kb_mean,retrans_kb_stddev,timeouts_avg",
			len(schemes)*len(sizes), RetransTable, retx, dropSecond),
		studyCase("fig10_11", "scheme,bad_period_sec,throughput_mbps_mean,throughput_mbps_stddev,retrans_kb_mean,timeouts_avg,tput_th_mbps",
			len(lan), LANTable, lan, dropSecond),
		studyCase("csdp", "policy,bad_period_sec,aggregate_kbps_mean,aggregate_kbps_stddev,fairness_mean,discards_avg",
			len(csdp), CSDPTable, csdp, dropSecond),
		studyCase("handoff", "scheme,dwell_sec,throughput_kbps_mean,throughput_kbps_stddev,timeouts_avg,fastretx_avg",
			len(handoff), HandoffTable, handoff, dropSecond),
		// A severity step holds two engine points; a quarantined one
		// leaves its scheme's sample nil.
		studyCase("severity", "bad_period_sec,bad_ber,basic_kbps,ebsn_kbps,improvement_pct",
			len(severity), SeverityTable, severity, func(ps []SeverityPoint) []SeverityPoint {
				ps[1].EBSNKbps = nil
				return ps
			}),
		studyCase("congestion", "scheme,load_fraction,throughput_kbps_mean,throughput_kbps_stddev,timeouts_avg",
			len(congestion), CongestionTable, congestion, dropSecond),
		studyCase("zoo", "variant,scheme,tput_kbps_mean,tput_kbps_stddev,goodput_mean,timeouts_avg,retrans_kb_avg",
			len(zoo), ZooTable, zoo, dropSecond),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			csv := strings.Split(strings.TrimSuffix(c.csv(false), "\n"), "\n")
			if csv[0] != c.header {
				t.Errorf("CSV header %q, want %q", csv[0], c.header)
			}
			if len(csv)-1 != c.points {
				t.Errorf("CSV has %d rows, want one per grid point (%d)", len(csv)-1, c.points)
			}
			md := c.markdown(false)
			if got := strings.Count(md, "\n") - 2; got != c.rows {
				t.Errorf("markdown has %d rows, want %d:\n%s", got, c.rows, md)
			}
			if strings.Contains(md, "| - |") {
				t.Errorf("a full grid printed a missing cell:\n%s", md)
			}

			if got := strings.Count(c.csv(true), "\n") - 1; got != c.points-1 {
				t.Errorf("with a point removed the CSV has %d rows, want %d", got, c.points-1)
			}
			md = c.markdown(true)
			if got := strings.Count(md, "\n") - 2; got != c.rows {
				t.Errorf("with a point removed markdown has %d rows, want the grid's %d:\n%s", got, c.rows, md)
			}
			if !strings.Contains(md, "| - |") {
				t.Errorf("a removed point does not print as -:\n%s", md)
			}
		})
	}
}

// TestQuarantinedKeyKeepsItsRow: when every point of one packet size is
// quarantined, Figure 7 still returns those points, with only their keys;
// the markdown keeps the size's row with "-" in each cell, the CSV
// carries no row of that size, and the optimum is picked among the
// measured sizes.
func TestQuarantinedKeyKeepsItsRow(t *testing.T) {
	stubRunSim(t, func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		if cfg.PacketSize == 512 {
			return nil, &sim.BudgetError{Kind: sim.BudgetWall, Limit: 1, Value: 2}
		}
		return core.RunContext(ctx, cfg)
	})
	opt := ckOpts() // 512 and 1536 B at bad = 1 s and 4 s
	opt.Health = NewHealth()
	points, err := Fig7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if qs := quarantined(opt.Health); len(qs) != 2 || len(points) != 4 {
		t.Fatalf("%d quarantines and %d points, want 2 of 4 points quarantined", len(qs), len(points))
	}
	if md := ThroughputTable.Markdown(points); !strings.Contains(md, "\n| 512B | - | - |\n") {
		t.Errorf("the quarantined size lost its row of -:\n%s", md)
	}
	if csv := ThroughputTable.CSV(points); strings.Count(csv, "\n") != 3 || strings.Contains(csv, ",512,") {
		t.Errorf("CSV should hold the two 1536 B rows only:\n%s", csv)
	}
	if size, _ := OptimalPacketSize(points, time.Second); size != 1536 {
		t.Errorf("optimum %v, want the one measured size", size)
	}
}
