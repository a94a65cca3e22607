package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuietRankRule(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 9: 1, 10: 1, 11: 2, 20: 2, 21: 3, 60: 6, 150: 15} {
		if got := quietRank(n); got != want {
			t.Errorf("quietRank(%d) = %d, want %d", n, got, want)
		}
	}
	// 20 batches: rank 2 from the fast side, whichever side is fast.
	var vals []float64
	for i := 1; i <= 20; i++ {
		vals = append(vals, float64(i))
	}
	if got := quiet(vals, lower); got != 2 {
		t.Errorf("quiet(1..20, lower) = %v, want 2", got)
	}
	if got := quiet(vals, higher); got != 19 {
		t.Errorf("quiet(1..20, higher) = %v, want 19", got)
	}
	if got := quiet(nil, lower); got != 0 {
		t.Errorf("quiet(nil) = %v, want 0", got)
	}
	// The input is not reordered.
	in := []float64{3, 1, 2}
	quiet(in, lower)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quiet reordered its input: %v", in)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples was reported; only 9 samples lie beyond it")
	}
	v, ok := tailPercentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 samples beyond", v, ok)
	}
	if _, ok := tailPercentile(seq(99), 0.90); ok {
		t.Error("p90 of 99 samples was reported")
	}
	if v, ok := tailPercentile(seq(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, ok)
	}
	rep := newReport()
	rep.setPercentile("x_p99", "ms", seq(40), 0.99)
	if rd := rep.readings["x_p99"]; rd.Value != 0 || !strings.Contains(rd.Note, "not reported") {
		t.Errorf("unsupported percentile reading = %+v, want 0 with a note", rd)
	}
}

// Quartiles must match Python's statistics.quantiles(values, n=4), the
// acceptance driver's spread rule.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestDigestIsStableAndOrderSensitive(t *testing.T) {
	a, b := newDigest(), newDigest()
	a.str("wan/basic/bad=1s/size=128")
	a.floats(9.25, 0.5)
	b.str("wan/basic/bad=1s/size=128")
	b.floats(9.25, 0.5)
	if a.sum48() != b.sum48() {
		t.Fatal("equal inputs gave different digests")
	}
	if a.sum48()>>48 != 0 {
		t.Errorf("digest %x does not fit 48 bits", a.sum48())
	}
	c := newDigest()
	c.str("wan/basic/bad=1s/size=128")
	c.floats(0.5, 9.25)
	if c.sum48() == a.sum48() {
		t.Error("swapping two values left the digest unchanged")
	}
	// The smallest change of one float changes it.
	d := newDigest()
	d.str("wan/basic/bad=1s/size=128")
	d.floats(math.Nextafter(9.25, 10), 0.5)
	if d.sum48() == a.sum48() {
		t.Error("a one-ulp change left the digest unchanged")
	}
	// A digest survives the trip through a float64 reading exactly.
	if uint64(float64(a.sum48())) != a.sum48() {
		t.Error("48-bit digest is not exact as a float64")
	}
}

func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", rate, []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, verdictOK},
		{"5% slower is inside the bound", rate, []float64{100, 101, 99, 100}, []float64{95, 96, 94, 95}, verdictOK},
		{"15% slower", rate, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, verdictWorse},
		{"15% faster", rate, []float64{100, 101, 99, 100}, []float64{115, 116, 114, 115}, verdictOK},
		{"latency 20% up", lat, []float64{1.0, 1.01, 0.99, 1.0}, []float64{1.2, 1.21, 1.19, 1.2}, verdictWorse},
		{"latency 20% down", lat, []float64{1.0, 1.01, 0.99, 1.0}, []float64{0.8, 0.81, 0.79, 0.8}, verdictOK},
		{"noisy sets overlap", rate, []float64{100, 140, 80, 120}, []float64{90, 130, 70, 125}, verdictUnresolved},
		{"noisy but every B run beats every A run", rate, []float64{100, 140, 80, 120}, []float64{150, 190, 145, 170}, verdictOK},
		{"noisy and every B run loses by more than the bound", rate, []float64{100, 140, 100, 120}, []float64{60, 90, 50, 70}, verdictWorse},
		{"single runs", rate, []float64{100}, []float64{80}, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsExitCodeAndRows(t *testing.T) {
	mk := func(ops float64, failed int64) runSet {
		var s runSet
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				rd := map[string]reading{}
				for _, d := range endToEnd {
					rd[d.Name] = reading{Value: 10, Unit: d.Unit}
				}
				rd["ops_per_s"] = reading{Value: ops + float64(i), Unit: "1/s"}
				s.Runs = append(s.Runs, runRecord{Workload: w.Name, Readings: rd, Failed: failed, Correct: failed == 0})
			}
			// Traced runs never enter a comparison.
			s.Runs = append(s.Runs, runRecord{Workload: w.Name, Trace: true, Readings: map[string]reading{"ops_per_s": {Value: 1}}})
		}
		return s
	}
	var out bytes.Buffer
	if code := printComparison(mk(1000, 0), mk(1001, 0), &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if rows := compareRows(mk(1000, 0), mk(1001, 0)); len(rows) != len(workloads)*len(endToEnd) {
		t.Errorf("%d rows, want one per (metric, workload) = %d", len(rows), len(workloads)*len(endToEnd))
	}
	out.Reset()
	if code := printComparison(mk(1000, 0), mk(700, 0), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower set: exit %d, want 1 with a 'worse' row\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(mk(1000, 0), mk(1000, 2), &out); code != 1 {
		t.Errorf("set with more failed operations: exit %d, want 1", code)
	}
}

// BENCHMARK.json is generated from the harness's tables; this keeps the
// committed file identical and inside the acceptance contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want := marshalIndent(buildManifest())
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(want))
	}
	m := buildManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters (limit 200, one line)", w.Name, len(w.Why))
		}
		if _, ok := sections[w.Name]; !ok {
			t.Errorf("workload %s has no section", w.Name)
		}
		if _, ok := opOf[w.Name]; !ok {
			t.Errorf("workload %s does not say what its op is", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit, d.Better)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// smokeRun runs one workload in this process at smoke size.
func smokeRun(t *testing.T, workload string, seed int64, trace int) *report {
	t.Helper()
	rep, err := runOne(options{workload: workload, seed: seed, seconds: 1, trace: trace, out: t.TempDir(), smoke: true}, os.Stderr)
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v", workload, seed, trace, err)
	}
	return rep
}

// Every workload's wiring and every output check, without timing
// assertions: the untraced run reports every end-to-end metric, nothing
// fails, and the values are real (never 0).
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		rep := smokeRun(t, w.Name, 1, 0)
		line := rep.contract(endToEnd)
		if !line.Correct || line.Failed != 0 || line.exitCode() != 0 {
			t.Errorf("%s: failed %d of %d: %v", w.Name, line.Failed, line.Attempted, rep.failures)
		}
		if line.Attempted < 1 {
			t.Errorf("%s: attempted %d", w.Name, line.Attempted)
		}
		for _, d := range endToEnd {
			if v := line.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, d.Name, v)
			}
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line has %d metrics, want %d", w.Name, len(line.Metrics), len(endToEnd))
		}
	}
}

// The traced run prints every per-layer name for any workload, and its
// span file is well formed: every span has a parent or is a root.
func TestSmokeTracedRunIsComplete(t *testing.T) {
	dir := t.TempDir()
	rep, err := runOne(options{workload: "serve_mix", seed: 1, seconds: 1, trace: 1, out: dir, smoke: true}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	line := rep.contract(perLayer)
	if !line.Correct {
		t.Errorf("traced run failed checks: %v", rep.failures)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("contract line has %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"sim.ns_per_event", "core.wan.events_per_run", "fleet.rpcs_per_point", "serve.handler_hit_ms_p50", "cell.events_per_run", "metrics.wan.digest"} {
		if v := line.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive reading", name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-serve_mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Layers) == 0 {
		t.Fatalf("span file holds %d spans, %d layers", len(tf.Spans), len(tf.Layers))
	}
	handlerUnderClient := 0
	for i, s := range tf.Spans {
		if s.Parent < -1 || s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d: neither a root nor an earlier span", i, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) never closed", i, s.Name)
		}
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "serve.handler") && tf.Spans[s.Parent].Name == "mix.hit" {
			handlerUnderClient++
			if s.Req == "" || s.Req != tf.Spans[s.Parent].Req {
				t.Errorf("handler span %d carries request id %q, its client span %q", i, s.Req, tf.Spans[s.Parent].Req)
			}
		}
	}
	if handlerUnderClient == 0 {
		t.Error("no handler span hangs under a client span: the header did not propagate")
	}
}

// Two seeds give different inputs (different digests) and both pass
// every identity check; one seed gives the same digest twice.
func TestSeedsChangeInputsNotCorrectness(t *testing.T) {
	digestOf := map[string]string{"wan_ladder": "metrics.wan.digest", "lan_zoo": "metrics.lan.digest", "cell_10k": "metrics.cell.digest"}
	digest := func(workload string, seed int64) float64 {
		rep := smokeRun(t, workload, seed, 0)
		if _, failed := rep.counts(); failed != 0 {
			t.Errorf("%s seed %d: %v", workload, seed, rep.failures)
		}
		v, ok := rep.get(digestOf[workload])
		if !ok || v == 0 {
			t.Fatalf("%s seed %d: no %s", workload, seed, digestOf[workload])
		}
		return v
	}
	for w, name := range digestOf {
		one, two := digest(w, 1), digest(w, 2)
		if one == two {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", name, uint64(one))
		}
	}
	if a, b := digest("wan_ladder", 3), digest("wan_ladder", 3); a != b {
		t.Errorf("metrics.wan.digest: seed 3 gave %x then %x", uint64(a), uint64(b))
	}
	// serve_mix has no digest: its identity checks (byte-identical hits)
	// must simply pass on another seed.
	if rep := smokeRun(t, "serve_mix", 2, 0); rep.failShare() != 0 {
		t.Errorf("serve_mix seed 2: %v", rep.failures)
	}
}

func TestCrossRungMismatchRaisesFailShareAndExitCode(t *testing.T) {
	keys := []string{"wan/basic/bad=1s/size=256", "wan/ebsn/bad=1s/size=256"}
	var outs [rungCount]rungOutcome
	for r := range outs {
		outs[r].values = pointValues{keys[0]: {1, 2}, keys[1]: {3, 4}}
	}
	rep := newReport()
	rep.ops(8)
	checkRungs(rep, 0, keys, outs)
	if line := rep.contract(nil); !line.Correct || line.exitCode() != 0 || rep.failShare() != 0 {
		t.Fatalf("identical rungs failed a check: %v", rep.failures)
	}
	outs[rungFleet].values[keys[1]] = []uint64{3, 5} // one bit pattern off in one rung
	checkRungs(rep, 1, keys, outs)
	line := rep.contract(nil)
	if line.Correct || line.Failed != 1 || line.exitCode() == 0 || rep.failShare() != 1.0/8 {
		t.Errorf("forced mismatch: correct=%v failed=%d exit=%d fail_share=%v; want a failed run", line.Correct, line.Failed, line.exitCode(), rep.failShare())
	}
	if len(rep.failures) != 1 || !strings.Contains(rep.failures[0], "fleet") || !strings.Contains(rep.failures[0], keys[1]) {
		t.Errorf("failure message %q does not name the rung and the point", rep.failures)
	}
	// A point missing from a rung is a mismatch too, not a pass.
	delete(outs[rungSweep].values, keys[0])
	before := line.Failed
	checkRungs(rep, 2, keys, outs)
	if _, failed := rep.counts(); failed != before+2 {
		t.Errorf("missing point: %d new failures, want 2 (the missing point and the earlier mismatch)", failed-before)
	}
}

func TestNon2xxReplyRaisesFailShareAndExitCode(t *testing.T) {
	lb, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"all run slots and queue positions are busy"}`, http.StatusTooManyRequests)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	st := &mixState{sizes: newMixSizes(true), lb: lb, filled: []stored{{req: runBody(1), fp: strings.Repeat("0", 64), body: []byte("{}")}}}
	c := newClient()
	defer closeClient(c)
	rep := newReport()
	for k := reqKind(0); k < kindCount; k++ {
		if r := st.issue(params{}, rep, c, noSpan, mixRequest{kind: k}, "t"); r.ok {
			t.Errorf("%s: a 429 reply counted as a completed op", kindNames[k])
		}
	}
	line := rep.contract(nil)
	if line.Correct || line.Failed != int64(kindCount) || line.Attempted != int64(kindCount) || line.exitCode() == 0 {
		t.Errorf("four 429 replies: correct=%v failed=%d attempted=%d exit=%d", line.Correct, line.Failed, line.Attempted, line.exitCode())
	}
	if rep.failShare() != 1 || st.rejected.Load() != int64(kindCount) {
		t.Errorf("fail_share %v, rejected %d; want 1 and %d", rep.failShare(), st.rejected.Load(), kindCount)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "req", Parent: 0, StartNs: 10, EndNs: 50}, // two concurrent clients:
		{Name: "req", Parent: 0, StartNs: 30, EndNs: 70}, // overlap 30..50 counts once
		{Name: "handler", Parent: 1, StartNs: 20, EndNs: 40},
		{Name: "open", Parent: 0, StartNs: 80, EndNs: -1}, // never closed: ignored
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if lt := got["batch"]; math.Abs(lt.SelfMs-40e-6) > 1e-12 || math.Abs(lt.SpanMs-100e-6) > 1e-12 {
		t.Errorf("batch: self %v ms span %v ms, want 40e-6 and 100e-6 (children cover 10..70)", lt.SelfMs, lt.SpanMs)
	}
	if lt := got["req"]; lt.Count != 2 || math.Abs(lt.SelfMs-60e-6) > 1e-12 {
		t.Errorf("req: %+v, want 2 spans with 60e-6 ms self (80 - handler's 20)", lt)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

// The time metrics are reported at reference speed: a run whose
// calibration read twice the reference time has its rates doubled and
// its times halved, with the raw figures kept beside them.
func TestEndToEndReadingsScaleToReferenceSpeed(t *testing.T) {
	var res sectionResult
	for i := 0; i < 20; i++ {
		noise := time.Duration(i) * time.Millisecond // batch 0 is the quiet one
		res.batches = append(res.batches, batchSample{
			walls: []time.Duration{100*time.Millisecond + noise, 300*time.Millisecond + 2*noise},
			cpus:  []time.Duration{90*time.Millisecond + noise, 270*time.Millisecond + noise},
			ops:   40, opMs: 2 + float64(i),
		})
	}
	res.setups = []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	slow := &calibrator{}
	for i := 0; i < 50; i++ {
		slow.samples = append(slow.samples, 2*calRefMs+float64(i)) // quiet decile: rank 5 -> +4 ms
	}
	factor := (2*calRefMs + 4) / calRefMs
	for _, c := range []struct {
		cal  *calibrator
		want float64
	}{{nil, 1}, {&calibrator{}, 1}, {slow, factor}} {
		rep := newReport()
		endToEndReadings(rep, res, c.cal)
		get := func(name string) float64 {
			v, ok := rep.get(name)
			if !ok {
				t.Fatalf("no %s", name)
			}
			return v
		}
		near := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("slowness %v: %s = %v, want %v", c.want, name, got, want)
			}
		}
		near("bench.slowness", get("bench.slowness"), c.want)
		// Per-part quiet deciles of 20 batches are rank 2: 101 ms + 302 ms.
		near("ops_per_s_raw", get("ops_per_s_raw"), 40/0.403)
		near("ops_per_s", get("ops_per_s"), 40/0.403*c.want)
		near("cpu_ms_per_op_raw", get("cpu_ms_per_op_raw"), (91.0+271.0)/40)
		near("cpu_ms_per_op", get("cpu_ms_per_op"), (91.0+271.0)/40/c.want)
		near("op_ms_p50_raw", get("op_ms_p50_raw"), 3)
		near("op_ms_p50", get("op_ms_p50"), 3/c.want)
		near("setup_s", get("setup_s"), 2/c.want)
		near("bench.batches", get("bench.batches"), 20)
	}
}
