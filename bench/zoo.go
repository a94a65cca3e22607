package main

import (
	"fmt"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/tcp"
)

// lan_zoo: the LAN preset (no fragmentation, 4 MB, 64 KB window, mean
// bad period 800 ms) over every sender variant and base-station scheme,
// once with the conformance oracle off and once with it on. It bypasses
// ip/node fragmentation, drives tcp and bs through recovery variants,
// the snoop cache and split halves, and prices the oracle.

type zooConfig struct {
	variant tcp.Variant
	scheme  bs.Scheme
}

func (z zooConfig) String() string { return z.variant.String() + "/" + z.scheme.String() }

func zooGrid(smoke bool) []zooConfig {
	if smoke {
		return []zooConfig{{tcp.Tahoe, bs.Basic}, {tcp.Tahoe, bs.EBSN}, {tcp.SACKVariant, bs.Snoop}, {tcp.Reno, bs.SplitConnection}}
	}
	var out []zooConfig
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, s := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
			out = append(out, zooConfig{v, s})
		}
	}
	return out
}

// zooHalf is one half of a batch: every configuration, oracle off or on.
// Its parts are the runs of one sender variant each (four schemes,
// ~20-60 ms), timed separately.
type zooHalf struct {
	walls, cpus []time.Duration // per variant
	runMs       []float64
	values      []float64 // throughput, goodput per configuration
	events      uint64
	tahoe       map[bs.Scheme]float64 // Tahoe throughput per scheme
}

func (h zooHalf) wall() (d time.Duration) {
	for _, w := range h.walls {
		d += w
	}
	return d
}

func zooRun(p params, parent int, grid []zooConfig, oracle bool) (zooHalf, error) {
	h := zooHalf{tahoe: map[bs.Scheme]float64{}}
	p.cal.sample()
	for i, z := range grid {
		cfg := core.LAN(z.scheme, 800*time.Millisecond)
		cfg.Variant = z.variant
		cfg.Seed = baseSeed(p.seed) + 1
		cfg.Oracle = oracle
		name := "core.Run"
		if oracle {
			name = "core.Run+oracle"
		}
		var res *core.Result
		var err error
		sp := p.tr.start(name, parent, z.String())
		wall, cpu := timed(func() { res, err = core.Run(cfg) })
		p.tr.end(sp)
		if err != nil {
			return h, fmt.Errorf("%v oracle=%v: %w", z, oracle, err)
		}
		if !res.Completed || res.SnoopCacheLen != 0 {
			return h, fmt.Errorf("%v oracle=%v: completed=%v, snoop cache holds %d at end", z, oracle, res.Completed, res.SnoopCacheLen)
		}
		if i == 0 || grid[i-1].variant != z.variant {
			h.walls, h.cpus = append(h.walls, 0), append(h.cpus, 0)
		}
		h.walls[len(h.walls)-1] += wall
		h.cpus[len(h.cpus)-1] += cpu
		h.runMs = append(h.runMs, ms(wall))
		h.events += res.Events
		h.values = append(h.values, res.Summary.ThroughputKbps, res.Summary.Goodput)
		if z.variant == tcp.Tahoe {
			h.tahoe[z.scheme] = res.Summary.ThroughputKbps
		}
	}
	return h, nil
}

func floatsDigest(vs []float64) uint64 {
	d := newDigest()
	d.floats(vs...)
	return d.sum48()
}

// runZoo is the lan_zoo section.
func runZoo(p params, rep *report) (sectionResult, error) {
	var res sectionResult
	grid := zooGrid(p.smoke)
	batch := func(p params, i int) (off, on zooHalf, err error) {
		root := p.tr.start("zoo.batch", noSpan, fmt.Sprint(i))
		defer p.tr.end(root)
		// Alternate which half goes first so neither always runs on the
		// warmer cache.
		if i%2 == 0 {
			if off, err = zooRun(p, root, grid, false); err == nil {
				on, err = zooRun(p, root, grid, true)
			}
		} else {
			if on, err = zooRun(p, root, grid, true); err == nil {
				off, err = zooRun(p, root, grid, false)
			}
		}
		return off, on, err
	}

	for i := 0; i < p.setupRepeats(); i++ {
		t0 := time.Now()
		if _, _, err := batch(p.untimed(), i); err != nil {
			return res, fmt.Errorf("warm-up batch: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}

	var offRate, onRate, ratio []float64
	var first uint64
	var firstOff zooHalf
	var events [2]uint64
	n, err := p.timedBatches(func(i int) error {
		off, on, err := batch(p, i)
		if err != nil {
			rep.ops(1)
			rep.fail("batch %d: %v", i, err)
			return nil
		}
		rep.ops(2 * len(grid))
		res.batches = append(res.batches, batchSample{
			walls: append(append([]time.Duration(nil), off.walls...), on.walls...),
			cpus:  append(append([]time.Duration(nil), off.cpus...), on.cpus...),
			ops:   2 * len(grid), opMs: median(off.runMs),
		})
		offRate = append(offRate, float64(len(grid))/off.wall().Seconds())
		onRate = append(onRate, float64(len(grid))/on.wall().Seconds())
		ratio = append(ratio, on.wall().Seconds()/off.wall().Seconds())

		// Output checks: arming the oracle changes no result bit, and every
		// batch repeats the first exactly.
		dOff, dOn := floatsDigest(off.values), floatsDigest(on.values)
		if dOff != dOn {
			rep.fail("batch %d: oracle-on results %012x differ from oracle-off %012x", i, dOn, dOff)
		}
		if i == 0 {
			first, firstOff, events = dOff, off, [2]uint64{off.events, on.events}
		} else if dOff != first || off.events != events[0] || on.events != events[1] {
			rep.fail("batch %d: digest %012x events %d/%d, first batch had %012x %d/%d", i, dOff, off.events, on.events, first, events[0], events[1])
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if n == 0 || firstOff.tahoe == nil {
		return res, fmt.Errorf("lan_zoo: no batch completed")
	}

	rep.setQuiet("core.lan.runs_per_s", "1/s", higher, offRate)
	rep.setQuiet("oracle.lan.runs_per_s", "1/s", higher, onRate)
	rep.setQuiet("oracle.on_ratio", "ratio", lower, ratio)
	rep.set("metrics.lan.digest", float64(first), "digest48", fmt.Sprintf("%012x", first))
	b := firstOff.tahoe[bs.Basic]
	rep.set("metrics.lan.ebsn_gain_pct", 100*(firstOff.tahoe[bs.EBSN]-b)/b, "%", "Tahoe, EBSN over basic at bad = 800 ms, one seed; paper: about +50 %")
	return res, nil
}
