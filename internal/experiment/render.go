package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/units"
)

// RenderThroughputTable formats Figure 7/8 points as the paper's series:
// one row per packet size, one column per bad period, with the tput_th
// ceiling row on top.
func RenderThroughputTable(title string, points []ThroughputPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	bads := ascending(points, func(p ThroughputPoint) time.Duration { return p.BadPeriod })
	sizes := ascending(points, func(p ThroughputPoint) units.ByteSize { return p.PacketSize })

	fmt.Fprintf(&b, "%-12s", "pkt size")
	for _, bad := range bads {
		fmt.Fprintf(&b, "  bad=%-7s", bad)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s", "tput_th")
	for _, bad := range bads {
		fmt.Fprintf(&b, "  %-11s", fmt.Sprintf("%.2f", theoreticalFor(points, bad)))
	}
	b.WriteString("\n")
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-12s", size)
		for _, bad := range bads {
			p, ok := pointAt(points, bad, size)
			if !ok {
				fmt.Fprintf(&b, "  %-11s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %-11s", fmt.Sprintf("%.2f±%.0f%%",
				p.ThroughputKbps.Mean(), 100*p.ThroughputKbps.RelStdDev()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ThroughputCSV emits Figure 7/8 points as CSV.
func ThroughputCSV(points []ThroughputPoint) string {
	var b strings.Builder
	b.WriteString("scheme,bad_period_sec,packet_size_bytes,throughput_kbps_mean,throughput_kbps_stddev,goodput_mean,tput_th_kbps\n")
	for _, p := range points {
		goodput := 0.0
		if p.Goodput != nil {
			goodput = p.Goodput.Mean()
		}
		fmt.Fprintf(&b, "%s,%.1f,%d,%.3f,%.3f,%.4f,%.3f\n",
			p.Scheme, p.BadPeriod.Seconds(), p.PacketSize,
			p.ThroughputKbps.Mean(), p.ThroughputKbps.StdDev(), goodput, p.TheoreticalMaxKbps)
	}
	return b.String()
}

// RenderRetransTable formats Figure 9 points.
func RenderRetransTable(title string, points []RetransPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, scheme := range distinct(points, func(p RetransPoint) bs.Scheme { return p.Scheme }) {
		fmt.Fprintf(&b, "[%s]\n", scheme)
		var sub []RetransPoint
		for _, p := range points {
			if p.Scheme == scheme {
				sub = append(sub, p)
			}
		}
		bads := ascending(sub, func(p RetransPoint) time.Duration { return p.BadPeriod })
		sizes := ascending(sub, func(p RetransPoint) units.ByteSize { return p.PacketSize })
		fmt.Fprintf(&b, "%-12s", "pkt size")
		for _, bad := range bads {
			fmt.Fprintf(&b, "  bad=%-7s", bad)
		}
		b.WriteString("\n")
		for _, size := range sizes {
			fmt.Fprintf(&b, "%-12s", size)
			for _, bad := range bads {
				found := false
				for _, p := range sub {
					if p.BadPeriod == bad && p.PacketSize == size {
						fmt.Fprintf(&b, "  %-11s", fmt.Sprintf("%.1fKB", p.RetransKB.Mean()))
						found = true
						break
					}
				}
				if !found {
					fmt.Fprintf(&b, "  %-11s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// RetransCSV emits Figure 9 points as CSV.
func RetransCSV(points []RetransPoint) string {
	var b strings.Builder
	b.WriteString("scheme,bad_period_sec,packet_size_bytes,retrans_kb_mean,retrans_kb_stddev,timeouts_avg\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.1f,%d,%.3f,%.3f,%.2f\n",
			p.Scheme, p.BadPeriod.Seconds(), p.PacketSize,
			p.RetransKB.Mean(), p.RetransKB.StdDev(), p.TimeoutsAvg)
	}
	return b.String()
}

// RenderLANTable formats Figures 10 and 11 points.
func RenderLANTable(title string, points []LANPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s  %-14s  %-18s  %-14s  %-10s\n",
		"bad", "scheme", "throughput(Mbps)", "retrans(KB)", "tput_th")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s  %-14s  %-18s  %-14s  %-10s\n",
			p.BadPeriod, p.Scheme,
			fmt.Sprintf("%.3f±%.0f%%", p.ThroughputMbps.Mean(), 100*p.ThroughputMbps.RelStdDev()),
			fmt.Sprintf("%.1f", p.RetransKB.Mean()),
			fmt.Sprintf("%.3f", p.TheoreticalMaxMbps))
	}
	return b.String()
}

// LANCSV emits Figure 10/11 points as CSV.
func LANCSV(points []LANPoint) string {
	var b strings.Builder
	b.WriteString("scheme,bad_period_sec,throughput_mbps_mean,throughput_mbps_stddev,retrans_kb_mean,timeouts_avg,tput_th_mbps\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.1f,%.4f,%.4f,%.2f,%.2f,%.4f\n",
			p.Scheme, p.BadPeriod.Seconds(),
			p.ThroughputMbps.Mean(), p.ThroughputMbps.StdDev(),
			p.RetransKB.Mean(), p.TimeoutsAvg, p.TheoreticalMaxMbps)
	}
	return b.String()
}

// distinct lists the distinct values of key over points, first seen
// first.
func distinct[P any, K comparable](points []P, key func(P) K) []K {
	seen := map[K]bool{}
	var out []K
	for _, p := range points {
		if k := key(p); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// ascending is distinct, sorted.
func ascending[P any, K cmp.Ordered](points []P, key func(P) K) []K {
	out := distinct(points, key)
	slices.Sort(out)
	return out
}

func theoreticalFor(points []ThroughputPoint, bad time.Duration) float64 {
	for _, p := range points {
		if p.BadPeriod == bad {
			return p.TheoreticalMaxKbps
		}
	}
	return 0
}

func pointAt(points []ThroughputPoint, bad time.Duration, size units.ByteSize) (ThroughputPoint, bool) {
	for _, p := range points {
		if p.BadPeriod == bad && p.PacketSize == size {
			return p, true
		}
	}
	return ThroughputPoint{}, false
}
