package main

// The benchmark's dictionary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root is generated
// from these tables (`go run ./bench -manifest`) and a test keeps the
// two identical, so a name exists in exactly one place.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"wan_ladder", "Paper Fig 7+8 grid (WAN, MTU-128 fragments, Tahoe) run as bare core.Run, engine+checkpoint, 2-worker fleet, wtcpd sweep: identical simulations, one more executor layer per rung. Default seed 1."},
	{"lan_zoo", "LAN preset, no fragmentation: 4 sender variants x 4 base-station schemes, oracle off and on. Bypasses ip/node, drives recovery variants, snoop cache, split halves; prices the oracle. Default seed 1."},
	{"cell_10k", "cell.Preset(10000) under RoundRobin, FIFO, CSDP: the struct-of-arrays engine shares no per-packet code with core.Run, so per-flow-path changes must read no change here. Default seed 1."},
	{"serve_mix", "One wtcpd (2 slots) on loopback, 2 closed-loop clients: 40% run misses, 50% hits over 2000 pre-filled results, 5% result GETs, 5% advise; reads beside writes on one growing cache. Default seed 1."},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) dir() direction {
	if m.Better == "higher" {
		return higher
	}
	return lower
}

// endToEnd metrics are reported by every workload (the acceptance
// driver requires each run to print all of them). What one "op" is
// depends on the workload; see opOf. A bound has to exceed the spread of
// the runs it is judged on: ten 20 s runs of one commit on the shared
// 2-core reference box spread (interquartile / median) by up to 16 % on
// the time metrics, hence 0.25 (README, "The quiet-decile estimator").
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// opOf documents, per workload, the op that ops_per_s and cpu_ms_per_op
// count and the op whose latency op_ms_p50 takes.
var opOf = map[string][2]string{
	"wan_ladder": {"completed 100 KB WAN run in the bare core.Run rung (the rungs above are reported per layer)", "one bare core.Run call"},
	"lan_zoo":    {"completed 4 MB LAN run, over the oracle-off and oracle-on halves", "one oracle-off core.Run call"},
	"cell_10k":   {"completed 32 KB cell flow, over the three scheduler policies", "one cell.Run call of 10 000 flows"},
	"serve_mix":  {"2xx reply, over the whole request mix", "one request of the mix (the median falls in the hit class)"},
}

// perLayer metrics come from the traced run: direct probes of a
// module's public API, and numbers derived from the harness-side spans
// of the four workload sections.
var perLayer = []metricDef{
	// Event kernel and small substrate modules (direct probes).
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_set_ns", Unit: "ns", Better: "lower"},
	{Name: "errmodel.query_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "link.send_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "link.allocs_per_pkt", Unit: "count", Better: "lower"},
	// Fragmentation path (576 B at MTU 128).
	{Name: "ip.frag_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ip.frag_allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "ip.reasm_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ip.reasm_allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "node.rx_ns_per_frag", Unit: "ns", Better: "lower"},
	{Name: "node.rx_allocs_per_frag", Unit: "count", Better: "lower"},
	// Sender variants over a pipe dropping every 50th segment; base station.
	{Name: "tcp.tahoe.ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "tcp.reno.ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "tcp.newreno.ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "tcp.sack.ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "tcp.allocs_per_seg", Unit: "count", Better: "lower"},
	{Name: "bs.arq_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bs.snoop_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bs.notify_ns", Unit: "ns", Better: "lower"},
	{Name: "bs.allocs_per_pkt", Unit: "count", Better: "lower"},
	// Whole runs.
	{Name: "core.wan.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.wan.events_per_run", Unit: "count", Better: "lower"},
	{Name: "core.wan.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "core.wan.bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "core.lan.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.lan.events_per_run", Unit: "count", Better: "lower"},
	{Name: "core.lan.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "core.lan.bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "core.build_us", Unit: "us", Better: "lower"},
	{Name: "core.wan.runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.lan.runs_per_s", Unit: "1/s", Better: "higher"},
	// Oracle and trace.
	{Name: "oracle.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "oracle.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "oracle.on_ratio", Unit: "ratio", Better: "lower"},
	{Name: "oracle.lan.runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.on_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.encode_ns_per_event", Unit: "ns", Better: "lower"},
	// Simulated-time results: must not move under a speed-only change.
	{Name: "metrics.wan.ebsn_gain_pct", Unit: "%", Better: "higher"},
	{Name: "metrics.wan.best_size_bytes", Unit: "B", Better: "higher"},
	{Name: "metrics.lan.ebsn_gain_pct", Unit: "%", Better: "higher"},
	{Name: "metrics.wan.digest", Unit: "digest48", Better: "higher"},
	{Name: "metrics.lan.digest", Unit: "digest48", Better: "higher"},
	{Name: "metrics.cell.digest", Unit: "digest48", Better: "higher"},
	// Experiment engine.
	{Name: "experiment.runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "experiment.overhead_us_per_point", Unit: "us", Better: "lower"},
	{Name: "experiment.point_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiment.ledger_put_us_at_100", Unit: "us", Better: "lower"},
	{Name: "experiment.ledger_put_us_at_1000", Unit: "us", Better: "lower"},
	{Name: "experiment.straggler_lines", Unit: "count", Better: "lower"},
	// Fleet.
	{Name: "fleet.runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.overhead_us_per_point", Unit: "us", Better: "lower"},
	{Name: "fleet.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "fleet.rpcs_per_point", Unit: "count", Better: "lower"},
	{Name: "fleet.lease_rpc_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.result_rpc_us_p50", Unit: "us", Better: "lower"},
	// Service.
	{Name: "serve.sweep_runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.sweep_overhead_us_per_point", Unit: "us", Better: "lower"},
	{Name: "serve.sweep_warm_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.miss_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.parse_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_ms_p50_first_batch", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50_last_batch", Unit: "ms", Better: "lower"},
	{Name: "serve.result_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.advise_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.cache_entries_end", Unit: "count", Better: "lower"},
	// Cell engine.
	{Name: "cell.flows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cell.rr.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cell.fifo.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cell.csdp.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cell.events_per_run", Unit: "count", Better: "lower"},
	{Name: "cell.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "cell.bytes_per_flow", Unit: "B", Better: "lower"},
	{Name: "cell.arena_peak", Unit: "count", Better: "lower"},
	// The harness itself.
	{Name: "bench.slowness", Unit: "ratio", Better: "lower"},
	{Name: "bench.noise_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.batches", Unit: "count", Better: "higher"},
	{Name: "bench.fail_share", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long one acceptance run measures.
const runSeconds = 20

// manifest is the exact shape of BENCHMARK.json. Per-layer entries
// carry no bound (metricDef omits a zero bound).
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
