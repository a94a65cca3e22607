package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/fleet"
	"wtcp/internal/serve"
)

// wan_ladder: the paper's Fig 7 + Fig 8 grid executed per pass through
// four rungs in rotating order — bare core.Run loop, experiment engine
// with a checkpoint, fleet.RunLocal with two in-process workers, and a
// cold POST /v1/sweep on a fresh wtcpd data dir. Every rung runs the
// identical simulations, so a rung's time over the bare rung's is the
// cost of the executor layer it adds, and all four must produce
// bit-identical replication values.

const (
	rungBare = iota
	rungEngine
	rungFleet
	rungSweep
	rungCount
)

var rungNames = [rungCount]string{"bare", "engine", "fleet", "sweep"}

// wanGrid is the sweep every rung executes.
type wanGrid struct {
	campaign fleet.Campaign
	opt      experiment.Options
	specs    []experiment.PointSpec
	keys     []string
	runs     int // specs x replications
	warm     int // repeats of the sweep body for the warm figure
}

func newWANGrid(p params) (wanGrid, error) {
	c := fleet.Campaign{
		Sweeps:       []string{experiment.SweepFig7, experiment.SweepFig8},
		Replications: 1,
		BaseSeed:     baseSeed(p.seed),
	}
	warm := 50
	if p.smoke {
		// 2 sizes x 2 bad periods x {basic, ebsn} = 8 points.
		c.PacketSizes = []int{256, 1024}
		c.BadPeriods = []string{"1s", "4s"}
		warm = 5
	}
	if err := c.Validate(); err != nil {
		return wanGrid{}, err
	}
	opt, err := c.Options()
	if err != nil {
		return wanGrid{}, err
	}
	specs, err := c.Specs()
	if err != nil {
		return wanGrid{}, err
	}
	g := wanGrid{campaign: c, opt: opt, specs: specs, runs: len(specs) * c.Replications, warm: warm}
	for _, s := range specs {
		k, err := s.Key()
		if err != nil {
			return wanGrid{}, err
		}
		g.keys = append(g.keys, k)
	}
	return g, nil
}

// pointValues holds, per point key, the replication values as float64
// bit patterns (replication-major: throughput, goodput, throughput, …).
type pointValues map[string][]uint64

func (pv pointValues) digest(keys []string) uint64 {
	d := newDigest()
	for _, k := range keys {
		d.str(k)
		d.bits(pv[k]...)
	}
	return d.sum48()
}

// rungOutcome is one rung of one pass.
type rungOutcome struct {
	wall, cpu time.Duration
	values    pointValues
	runMs     []float64 // bare rung only: per-run latency
	events    uint64    // bare rung only
	warmMs    []float64 // sweep rung only
}

// wanState is what set-up builds and the timed passes reuse.
type wanState struct {
	grid   wanGrid
	health *experiment.Health // engine + wtcpd telemetry; straggler lines counted by the stderr tap
}

func (st *wanState) bare(p params, parent int) (rungOutcome, error) {
	g := st.grid
	out := rungOutcome{values: pointValues{}}
	var runErr error
	out.wall, out.cpu = timed(func() {
		for i, spec := range g.specs {
			scheme, err := bs.ParseScheme(spec.Scheme)
			if err != nil {
				runErr = err
				return
			}
			psp := p.tr.start("wan.point", parent, g.keys[i])
			for rep := 1; rep <= g.opt.Replications; rep++ {
				cfg := core.WAN(scheme, spec.Size, spec.Bad)
				cfg.Seed = g.opt.BaseSeed + int64(rep)
				sp := p.tr.start("core.Run", psp, g.keys[i])
				t0 := time.Now()
				res, err := core.Run(cfg)
				d := time.Since(t0)
				p.tr.end(sp)
				if err != nil {
					runErr = fmt.Errorf("bare %s rep %d: %w", g.keys[i], rep, err)
					return
				}
				if !res.Completed {
					runErr = fmt.Errorf("bare %s rep %d: run did not complete", g.keys[i], rep)
					return
				}
				out.runMs = append(out.runMs, ms(d))
				out.events += res.Events
				out.values[g.keys[i]] = append(out.values[g.keys[i]],
					math.Float64bits(res.Summary.ThroughputKbps), math.Float64bits(res.Summary.Goodput))
			}
			p.tr.end(psp)
		}
	})
	return out, runErr
}

func (st *wanState) engine(p params, parent int) (rungOutcome, error) {
	g := st.grid
	opt := g.opt
	opt.Workers = 1
	opt.Checkpoint = p.scratch("engine.ckpt")
	opt.Health = st.health
	defer os.Remove(opt.Checkpoint)
	defer os.Remove(opt.Checkpoint + ".lock")
	if p.tr != nil {
		// One span per freshly computed point, closed by the engine's own
		// progress callback.
		last := time.Now()
		opt.OnPoint = func(key string) {
			p.tr.end(p.tr.startAt("experiment.point", parent, key, last))
			last = time.Now()
		}
	}
	var p7, p8 []experiment.ThroughputPoint
	var err7, err8 error
	out := rungOutcome{values: pointValues{}}
	out.wall, out.cpu = timed(func() {
		p7, err7 = experiment.Fig7(context.Background(), opt)
		if err7 == nil {
			p8, err8 = experiment.Fig8(context.Background(), opt)
		}
	})
	if err7 != nil {
		return out, fmt.Errorf("engine Fig7: %w", err7)
	}
	if err8 != nil {
		return out, fmt.Errorf("engine Fig8: %w", err8)
	}
	for sweep, pts := range map[string][]experiment.ThroughputPoint{experiment.SweepFig7: p7, experiment.SweepFig8: p8} {
		for _, pt := range pts {
			key, err := experiment.PointSpec{Sweep: sweep, Scheme: pt.Scheme.String(), Bad: pt.BadPeriod, Size: pt.PacketSize}.Key()
			if err != nil {
				return out, err
			}
			tput, good := pt.ThroughputKbps.Values(), pt.Goodput.Values()
			for i := range tput {
				out.values[key] = append(out.values[key], math.Float64bits(tput[i]), math.Float64bits(good[i]))
			}
		}
	}
	return out, nil
}

// ledgerValues reads every point of a finished ledger.
func (st *wanState) ledgerValues(path string) (pointValues, error) {
	led, err := experiment.OpenLedger(path, st.grid.opt)
	if err != nil {
		return nil, err
	}
	defer led.Close()
	pv := pointValues{}
	for _, k := range st.grid.keys {
		reps, ok := led.Reps(k)
		if !ok {
			return nil, fmt.Errorf("ledger %s lacks point %s", path, k)
		}
		for _, r := range reps {
			pv[k] = append(pv[k], r.Values...)
		}
	}
	return pv, nil
}

func (st *wanState) fleet(p params, parent int) (rungOutcome, error) {
	path := p.scratch("fleet.ckpt")
	defer os.Remove(path)
	defer os.Remove(path + ".lock")
	var out rungOutcome
	var err error
	if p.tr == nil {
		out.wall, out.cpu = timed(func() {
			_, err = fleet.RunLocal(context.Background(), fleet.LocalOptions{
				Campaign: st.grid.campaign, Workers: 2, LedgerPath: path,
			})
		})
	} else {
		out.wall, out.cpu = timed(func() { err = tracedFleet(p, parent, st.grid.campaign, path) })
	}
	if err != nil {
		return out, fmt.Errorf("fleet: %w", err)
	}
	out.values, err = st.ledgerValues(path)
	return out, err
}

// tracedFleet is fleet.RunLocal's in-process shape rebuilt from
// NewCoordinator + RunWorker, so the harness can put a span around the
// coordinator's handler and around every worker RPC.
func tracedFleet(p params, parent int, c fleet.Campaign, ledger string) error {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Campaign: c, LedgerPath: ledger})
	if err != nil {
		return err
	}
	defer coord.Close()
	lb, err := serveLoopback(tracedHandler(p.tr, "fleet.handler", coord.Handler()))
	if err != nil {
		return err
	}
	defer lb.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wsp := p.tr.start("fleet.worker", parent, "")
			defer p.tr.end(wsp)
			base := &http.Transport{}
			defer base.CloseIdleConnections()
			client := &http.Client{Transport: &tracingTransport{tr: p.tr, parent: wsp, layer: "fleet.rpc", base: base}}
			fleet.RunWorker(ctx, fleet.WorkerConfig{ // a worker error shows as a missing ledger point
				Name: fmt.Sprintf("worker-%d", i), Coordinator: lb.url,
				Health: experiment.NewHealth(), HTTPClient: client,
			})
		}(i)
	}
	<-coord.Done()
	cancel()
	wg.Wait()
	return coord.Err()
}

func (st *wanState) sweep(p params, parent int) (rungOutcome, error) {
	g := st.grid
	out := rungOutcome{values: pointValues{}}
	dir, err := p.scratchDir("wtcpd")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{DataDir: dir, Slots: 2, Health: st.health})
	if err != nil {
		return out, err
	}
	lb, err := serveLoopback(tracedHandler(p.tr, "serve.handler", srv.Handler()))
	if err != nil {
		srv.Close()
		return out, err
	}
	client := newClient()
	defer func() {
		closeClient(client)
		lb.close()
		srv.Drain(context.Background())
		srv.Close()
	}()
	campaign, err := json.Marshal(g.campaign)
	if err != nil {
		return out, err
	}
	body, err := json.Marshal(serve.SweepRequest{Campaign: campaign})
	if err != nil {
		return out, err
	}
	var cold reply
	out.wall, out.cpu = timed(func() {
		cold, err = do(client, p.tr, parent, "wan.sweep.cold", "sweep", http.MethodPost, lb.url+"/v1/sweep", body)
	})
	if err != nil {
		return out, fmt.Errorf("sweep: %w", err)
	}
	if cold.status != http.StatusOK {
		return out, fmt.Errorf("sweep: HTTP %d: %s", cold.status, cold.body)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(cold.body, &resp); err != nil {
		return out, fmt.Errorf("sweep: decode: %w", err)
	}
	for _, pt := range resp.Points {
		if pt.Quarantine != nil {
			return out, fmt.Errorf("sweep: point %s quarantined: %s", pt.Key, pt.Quarantine.Reason)
		}
		for _, r := range pt.Replications {
			for _, v := range r.Values {
				out.values[pt.Key] = append(out.values[pt.Key], math.Float64bits(v))
			}
		}
	}
	for i := 0; i < g.warm; i++ {
		warm, err := do(client, p.tr, parent, "wan.sweep.warm", "sweep", http.MethodPost, lb.url+"/v1/sweep", body)
		if err != nil {
			return out, fmt.Errorf("warm sweep: %w", err)
		}
		if same := bytes.Equal(warm.body, cold.body); warm.status != http.StatusOK || !same {
			return out, fmt.Errorf("warm sweep %d: HTTP %d, body identical to cold: %v", i, warm.status, same)
		}
		out.warmMs = append(out.warmMs, ms(warm.wall))
	}
	return out, nil
}

// pass runs the four rungs once, starting at rung (first mod 4).
func (st *wanState) pass(p params, first int) ([rungCount]rungOutcome, error) {
	var outs [rungCount]rungOutcome
	root := p.tr.start("wan.pass", noSpan, fmt.Sprint(first))
	defer p.tr.end(root)
	for i := 0; i < rungCount; i++ {
		r := (first + i) % rungCount
		p.cal.sample()
		sp := p.tr.start("wan.rung."+rungNames[r], root, "")
		var err error
		switch r {
		case rungBare:
			outs[r], err = st.bare(p, sp)
		case rungEngine:
			outs[r], err = st.engine(p, sp)
		case rungFleet:
			outs[r], err = st.fleet(p, sp)
		case rungSweep:
			outs[r], err = st.sweep(p, sp)
		}
		p.tr.end(sp)
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// runWAN is the wan_ladder section.
func runWAN(p params, rep *report) (sectionResult, error) {
	var res sectionResult
	grid, err := newWANGrid(p)
	if err != nil {
		return res, err
	}
	tap := tapStderr()
	defer tap.stop()

	// Set-up: telemetry collector and one untimed warm-up pass (fills the
	// simulator pool, the HTTP stacks, the page cache of the scratch dir).
	var st *wanState
	for i := 0; i < p.setupRepeats(); i++ {
		t0 := time.Now()
		st = &wanState{grid: grid, health: experiment.NewHealth()}
		if _, err := st.pass(p.untimed(), i); err != nil {
			return res, fmt.Errorf("warm-up pass: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	tap.reset()

	var (
		rates   [rungCount][]float64
		runMs   []float64
		warmMs  []float64
		first   uint64
		firstPV pointValues
		events  uint64
	)
	n, err := p.timedBatches(func(i int) error {
		outs, err := st.pass(p, i)
		if err != nil {
			rep.ops(1)
			rep.fail("pass %d: %v", i, err)
			return nil
		}
		rep.ops(rungCount * grid.runs)
		// The end-to-end figures are the bare rung's. The rungs above it
		// hand every point to another goroutine (a worker pool, an HTTP
		// handler), and on a shared VM the latency of waking the idle
		// vCPU sets their floor: between back-to-back runs of one commit
		// the bare rung's quiet decile moved 8 %, the other three 27-29 %.
		// They are reported per rung and checked bit for bit, not bounded.
		res.batches = append(res.batches, batchSample{
			walls: []time.Duration{outs[rungBare].wall}, cpus: []time.Duration{outs[rungBare].cpu},
			ops: grid.runs, opMs: median(outs[rungBare].runMs),
		})
		for r, o := range outs {
			rates[r] = append(rates[r], float64(grid.runs)/o.wall.Seconds())
		}
		runMs = append(runMs, outs[rungBare].runMs...)
		warmMs = append(warmMs, outs[rungSweep].warmMs...)

		// Output checks: all four rungs bit-identical, point by point, and
		// every pass identical to the first.
		checkRungs(rep, i, grid.keys, outs)
		ref := outs[rungBare].values
		d := ref.digest(grid.keys)
		if i == 0 {
			first, firstPV, events = d, ref, outs[rungBare].events
		} else if d != first || outs[rungBare].events != events {
			rep.fail("pass %d: digest %012x events %d, first pass had %012x / %d", i, d, outs[rungBare].events, first, events)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if n == 0 || firstPV == nil {
		return res, fmt.Errorf("wan_ladder: no pass completed")
	}

	bare := rep.setQuiet("core.wan.runs_per_s", "1/s", higher, rates[rungBare])
	eng := rep.setQuiet("experiment.runs_per_s", "1/s", higher, rates[rungEngine])
	flt := rep.setQuiet("fleet.runs_per_s", "1/s", higher, rates[rungFleet])
	swp := rep.setQuiet("serve.sweep_runs_per_s", "1/s", higher, rates[rungSweep])
	points := float64(len(grid.specs))
	perPoint := func(rate float64) float64 { // us per point above the bare rung
		return (float64(grid.runs)/rate - float64(grid.runs)/bare) * 1e6 / points
	}
	note := fmt.Sprintf("(rung - bare) / %d points, quiet deciles", len(grid.specs))
	rep.set("experiment.overhead_us_per_point", perPoint(eng), "us", note)
	rep.set("fleet.overhead_us_per_point", perPoint(flt), "us", note)
	rep.set("serve.sweep_overhead_us_per_point", perPoint(swp), "us", note)
	rep.set("fleet.parallel_efficiency", flt/(2*bare), "ratio", "fleet / (2 workers x bare)")
	rep.set("serve.sweep_warm_ms_p50", median(warmMs), "ms", fmt.Sprintf("%d warm repeats", len(warmMs)))
	rep.set("experiment.straggler_lines", float64(tap.count())/float64(n), "count", "stderr lines per pass (engine, fleet and sweep rungs)")
	rep.setPercentile("core.wan.run_ms_p99", "ms", runMs, 0.99)

	rep.set("metrics.wan.digest", float64(first), "digest48", fmt.Sprintf("%012x", first))
	gain, bestSize := wanHeadline(grid, firstPV)
	rep.set("metrics.wan.ebsn_gain_pct", gain, "%", "EBSN over basic at the largest size and longest bad period; paper: about +100 %")
	rep.set("metrics.wan.best_size_bytes", bestSize, "B", "basic TCP's best packet size at the longest bad period")

	if p.tr != nil {
		fleetRPCReadings(p.tr, rep, n*len(grid.specs))
	}
	return res, nil
}

// fleetRPCReadings derives the fleet's RPC figures from the handler
// spans of the traced run.
func fleetRPCReadings(tr *tracer, rep *report, points int) {
	lease := tr.durations("fleet.handler /v1/lease")
	result := tr.durations("fleet.handler /v1/result")
	rpcs := len(lease) + len(result) + len(tr.durations("fleet.handler /v1/renew")) + len(tr.durations("fleet.handler /v1/campaign"))
	rep.set("fleet.rpcs_per_point", float64(rpcs)/float64(points), "count", fmt.Sprintf("%d RPCs over %d points", rpcs, points))
	rep.set("fleet.lease_rpc_us_p50", median(lease)*1000, "us", fmt.Sprintf("handler span, %d samples", len(lease)))
	rep.set("fleet.result_rpc_us_p50", median(result)*1000, "us", fmt.Sprintf("handler span, %d samples", len(result)))
}

// checkRungs fails one check per point whose replication values are not
// bit-identical between the bare rung and a rung above it.
func checkRungs(rep *report, pass int, keys []string, outs [rungCount]rungOutcome) {
	ref := outs[rungBare].values
	for r := rungEngine; r < rungCount; r++ {
		for _, k := range keys {
			if !equalBits(ref[k], outs[r].values[k]) {
				rep.fail("pass %d: point %s differs between bare and %s rung", pass, k, rungNames[r])
			}
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wanHeadline computes the paper-facing numbers from one pass: EBSN's
// throughput gain over basic TCP at the largest packet size and longest
// bad period, and basic TCP's throughput-maximizing packet size there.
func wanHeadline(g wanGrid, pv pointValues) (gainPct, bestSize float64) {
	var longest time.Duration
	var largest int
	for _, s := range g.specs {
		longest = max(longest, s.Bad)
		largest = max(largest, int(s.Size))
	}
	mean := func(k string) float64 {
		var sum float64
		vals := pv[k]
		for i := 0; i < len(vals); i += 2 { // even slots hold throughput
			sum += math.Float64frombits(vals[i])
		}
		return sum / float64(len(vals)/2)
	}
	var basicAtLargest, ebsnAtLargest, best float64
	sizes := []int{}
	bySize := map[int]float64{}
	for i, s := range g.specs {
		if s.Bad != longest {
			continue
		}
		m := mean(g.keys[i])
		switch {
		case s.Scheme == "basic":
			sizes = append(sizes, int(s.Size))
			bySize[int(s.Size)] = m
			if int(s.Size) == largest {
				basicAtLargest = m
			}
		case int(s.Size) == largest:
			ebsnAtLargest = m
		}
	}
	sort.Ints(sizes)
	for _, sz := range sizes {
		if bySize[sz] > best {
			best, bestSize = bySize[sz], float64(sz)
		}
	}
	if basicAtLargest > 0 {
		gainPct = 100 * (ebsnAtLargest - basicAtLargest) / basicAtLargest
	}
	return gainPct, bestSize
}
