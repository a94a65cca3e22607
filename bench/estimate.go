package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// direction says which way a metric improves.
type direction int

const (
	lower direction = iota
	higher
)

// quietRank is the quiet-decile rule: with n equal-work batches the
// reported value is the batch at rank ceil(n/10), counted from the fast
// side (1-based). On a shared box wall-time medians wander by tens of
// percent in multi-second stretches while the floor repeats to ~2 %;
// rank ceil(n/10) rather than the minimum keeps one lucky batch from
// deciding the number once n >= 11.
func quietRank(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + 9) / 10
}

// quiet returns the quiet-decile value of per-batch readings: the
// rank-quietRank smallest for a lower-is-better metric, largest for a
// higher-is-better one. Empty input reads 0.
func quiet(vals []float64, better direction) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := quietRank(len(s))
	if better == higher {
		return s[len(s)-k]
	}
	return s[k-1]
}

// median of an unsorted sample (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method),
// so spreads computed here match the acceptance driver's. Fewer than
// two values have no spread: all three read the single value.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the run-to-run spread the acceptance rule compares against a bound.
func spreadShare(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPercentile returns the p-th percentile (0 < p < 1) of a sample,
// and whether the sample supports it: a percentile is only reported
// with at least ten samples beyond it, so p99 needs 1000 samples and
// p90 needs 100. Unsupported percentiles read 0, false.
func tailPercentile(vals []float64, p float64) (float64, bool) {
	n := len(vals)
	beyond := int(math.Floor(float64(n)*(1-p) + 1e-9))
	if beyond < 10 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[n-1-beyond], true
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB;
// 0 when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal float64
	ok           bool
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShare is the share of all CPU ticks between two readings that
// the hypervisor gave to other guests — how busy the neighbours were.
func stealShare(from, to cpuTicks) float64 {
	if !from.ok || !to.ok || to.total <= from.total {
		return 0
	}
	return (to.steal - from.steal) / (to.total - from.total)
}
