package main

import (
	"fmt"
	"runtime"
	"time"

	"wtcp/internal/cell"
)

// cell_10k: cell.Run of a 10 000-flow cell under the three base-station
// scheduling policies. The struct-of-arrays engine shares no per-packet
// code with core.Run, so an optimisation of the per-flow path must read
// no change here; the three policies use the same scheduler layer three
// ways.
//
// The configuration is cell.Preset(10000) with two changes that make
// its cost a property of the code and not of the seed. The preset puts
// all 10 000 flows behind one shared Gilbert channel, so a run either
// meets a fade or does not: sizing read 0.4 s per run for seeds 1 and 3
// and 2.6-5.1 s under CSDP for seeds 2 and 100001 (the skip scan is
// linear in flows while the one channel is bad; see README, first
// readings). With a channel per flow every seed sees the same share of
// faded flows (events within 0.5 % across seeds). And the horizon is
// 30 min instead of 60 s, because FIFO's head-of-line blocking otherwise
// leaves 3-10 of the 10 000 flows unfinished.

var cellPolicies = []cell.Policy{cell.RoundRobin, cell.FIFO, cell.CSDP}

var cellPolicyTag = map[cell.Policy]string{cell.RoundRobin: "rr", cell.FIFO: "fifo", cell.CSDP: "csdp"}

// cellRun is one policy's run inside a batch.
type cellRun struct {
	wall, cpu     time.Duration
	events        uint64
	mallocs       uint64
	bytes         uint64
	arenaPeak     int
	aggregateKbps float64
	fairness      float64
	timeouts      uint64
}

func cellFlows(smoke bool) int {
	if smoke {
		return 500
	}
	return 10000
}

func cellConfig(p params, pol cell.Policy) cell.Config {
	cfg := cell.Preset(cellFlows(p.smoke))
	cfg.Policy = pol
	cfg.SharedChannel = false
	cfg.Horizon = 30 * time.Minute
	cfg.Seed = baseSeed(p.seed) + 1
	return cfg
}

func cellBatch(p params, i int) (map[cell.Policy]cellRun, error) {
	root := p.tr.start("cell.batch", noSpan, fmt.Sprint(i))
	defer p.tr.end(root)
	flows := cellFlows(p.smoke)
	out := map[cell.Policy]cellRun{}
	for k := range cellPolicies {
		// Rotate the starting policy so none always runs first.
		pol := cellPolicies[(i+k)%len(cellPolicies)]
		cfg := cellConfig(p, pol)
		p.cal.sample()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *cell.Result
		var err error
		sp := p.tr.start("cell.Run "+cellPolicyTag[pol], root, "")
		wall, cpu := timed(func() { res, err = cell.Run(cfg) })
		p.tr.end(sp)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("cell.Run %v: %w", pol, err)
		}
		if res.CompletedFlows != flows || res.Arena.LiveAtEnd != 0 {
			return nil, fmt.Errorf("cell.Run %v: %d of %d flows completed, %d arena slots live at end", pol, res.CompletedFlows, flows, res.Arena.LiveAtEnd)
		}
		out[pol] = cellRun{
			wall: wall, cpu: cpu, events: res.Events,
			mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
			arenaPeak: res.Arena.PeakLive, aggregateKbps: res.AggregateKbps, fairness: res.Fairness, timeouts: res.TotalTimeouts,
		}
	}
	return out, nil
}

func cellDigest(runs map[cell.Policy]cellRun) uint64 {
	d := newDigest()
	for _, pol := range cellPolicies {
		r := runs[pol]
		d.floats(r.aggregateKbps, r.fairness)
		d.bits(r.timeouts, r.events)
	}
	return d.sum48()
}

// runCell is the cell_10k section.
func runCell(p params, rep *report) (sectionResult, error) {
	var res sectionResult
	flows := cellFlows(p.smoke)
	// Set-up is one untimed warm-up run (it grows the heap and the pooled
	// kernel to working size); the engine has nothing else to prepare.
	for i := 0; i < p.setupRepeats(); i++ {
		t0 := time.Now()
		if r, err := cell.Run(cellConfig(p, cell.RoundRobin)); err != nil || r.CompletedFlows != flows {
			return res, fmt.Errorf("warm-up run: completed=%v err=%v", r != nil && r.CompletedFlows == flows, err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}

	nsPerEvent := map[cell.Policy][]float64{}
	var flowRate []float64
	var first uint64
	var firstRuns map[cell.Policy]cellRun
	fewest := map[cell.Policy]cellRun{}
	n, err := p.timedBatches(func(i int) error {
		runs, err := cellBatch(p, i)
		if err != nil {
			rep.ops(1)
			rep.fail("batch %d: %v", i, err)
			return nil
		}
		rep.ops(len(cellPolicies) * flows)
		b := batchSample{ops: len(cellPolicies) * flows}
		var runMs []float64
		for _, pol := range cellPolicies {
			r := runs[pol]
			b.walls = append(b.walls, r.wall)
			b.cpus = append(b.cpus, r.cpu)
			runMs = append(runMs, ms(r.wall))
			nsPerEvent[pol] = append(nsPerEvent[pol], float64(r.wall.Nanoseconds())/float64(r.events))
		}
		b.opMs = median(runMs)
		res.batches = append(res.batches, b)
		flowRate = append(flowRate, float64(b.ops)/b.wall().Seconds())
		// The runtime adds a few allocations of its own around a collection;
		// the count reported is the fewest any batch saw.
		for pol, r := range runs {
			if f, ok := fewest[pol]; !ok || r.mallocs < f.mallocs {
				fewest[pol] = r
			}
		}
		d := cellDigest(runs)
		if i == 0 {
			first, firstRuns = d, runs
		} else if d != first {
			rep.fail("batch %d: cell digest %012x, first batch had %012x", i, d, first)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if n == 0 || firstRuns == nil {
		return res, fmt.Errorf("cell_10k: no batch completed")
	}

	rep.setQuiet("cell.flows_per_s", "1/s", higher, flowRate)
	var events, mallocs, bytes uint64
	peak := 0
	for _, pol := range cellPolicies {
		rep.setQuiet("cell."+cellPolicyTag[pol]+".ns_per_event", "ns", lower, nsPerEvent[pol])
		events += firstRuns[pol].events
		mallocs += fewest[pol].mallocs
		bytes += fewest[pol].bytes
		peak = max(peak, firstRuns[pol].arenaPeak)
	}
	k := uint64(len(cellPolicies))
	rep.set("cell.events_per_run", float64(events/k), "count", "mean over the three policies")
	rep.set("cell.allocs_per_run", float64(mallocs/k), "count", "heap allocations, mean over the three policies, fewest of any batch")
	rep.set("cell.bytes_per_flow", float64(bytes/k)/float64(flows), "B", "heap bytes allocated per flow, same runs")
	rep.set("cell.arena_peak", float64(peak), "count", "peak live arena slots, largest of the three policies")
	rep.set("metrics.cell.digest", float64(first), "digest48", fmt.Sprintf("%012x", first))
	return res, nil
}
