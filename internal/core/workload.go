package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/distrib"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// The paper motivates the study with "popular applications like ftp,
// telnet, www-access" but evaluates only bulk transfer (ftp). The
// workload runners below put the other two application shapes on the same
// FH-BS-MH topology:
//
//   - RunWeb: request/response pages — a burst of page bytes, a pause
//     until the mobile host has the whole page, a think time, repeat. The
//     metric is page-load latency.
//   - RunTelnet: an interactive echo stream — small writes at typing
//     intervals, each measured from production at the fixed host to
//     delivery at the mobile host. The metric is keystroke latency.
//
// Both use the streaming sender: bytes become sendable when the
// application produces them. Supervision is armed as for a bulk run, so an
// application pause as long as an armed stall window is a *sim.StallError.

// WebWorkload describes a page-fetch sequence.
type WebWorkload struct {
	// Pages is the number of page downloads.
	Pages int
	// PageSize is the per-page payload when PageSizes is nil.
	PageSize units.ByteSize
	// PageSizes, when non-nil, draws each page's size from a
	// distribution (web object sizes are classically heavy-tailed
	// Pareto); samples are clamped to at least one byte. The draw uses
	// the run's seed, so a configuration is fully reproducible.
	PageSizes distrib.Distribution
	// ThinkTime is the fixed reading pause between a page's completion
	// and the next request.
	ThinkTime time.Duration
}

// WebResult carries the page-level measurements.
type WebResult struct {
	Completed bool
	// PageLoadSec holds each page's load time (request to last byte).
	PageLoadSec []float64
	MeanLoadSec float64
	P95LoadSec  float64
	Timeouts    uint64
	EBSNResets  uint64
}

// RunWeb executes a web-browsing workload over the configured topology.
// cfg.TransferSize is ignored (derived from the workload).
func RunWeb(cfg Config, web WebWorkload) (*WebResult, error) {
	if web.Pages <= 0 || (web.PageSize <= 0 && web.PageSizes == nil) {
		return nil, errors.New("core: web workload needs pages and a page size (or size distribution)")
	}
	if cfg.Scheme == bs.SplitConnection || cfg.Scheme == bs.Snoop {
		return nil, errors.New("core: workload runners support the in-path schemes only")
	}
	// Pre-draw the page sizes so the transfer total is known up front
	// (and the sequence depends only on the seed).
	sizes := make([]units.ByteSize, web.Pages)
	var total units.ByteSize
	if web.PageSizes != nil {
		rng := sim.NewRNG(cfg.Seed ^ 0x5eb)
		for i := range sizes {
			v := units.ByteSize(web.PageSizes.Sample(rng))
			if v < 1 {
				v = 1
			}
			sizes[i] = v
			total += v
		}
	} else {
		for i := range sizes {
			sizes[i] = web.PageSize
		}
		total = units.ByteSize(web.Pages) * web.PageSize
	}
	cfg.TransferSize = total
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	tp, err := newTopology(cfg, true)
	if err != nil {
		return nil, err
	}
	tp.tap(cfg, false)

	res := &WebResult{}
	var pageStart time.Duration
	var nextBoundary units.ByteSize
	page := 0

	startPage := func() {
		pageStart = tp.sim.Now()
		nextBoundary += sizes[page]
		tp.sender.MakeAvailable(sizes[page])
		page++
	}
	tp.sink.SetDeliveredHook(func(total units.ByteSize) {
		if total < nextBoundary {
			return
		}
		res.PageLoadSec = append(res.PageLoadSec, (tp.sim.Now() - pageStart).Seconds())
		if len(res.PageLoadSec) < web.Pages {
			tp.sim.Schedule(web.ThinkTime, startPage)
		}
	})

	tp.sender.Start() // ahead of run's own: the first write goes to a started sender
	startPage()
	done := func() bool { return len(res.PageLoadSec) >= web.Pages }
	if err := orStall(tp.run(context.TODO(), cfg, done)); err != nil {
		tp.release()
		return nil, err
	}
	res.Completed = len(res.PageLoadSec) == web.Pages
	res.Timeouts = tp.sender.Stats().Timeouts
	res.EBSNResets = tp.sender.Stats().EBSNResets
	res.MeanLoadSec, res.P95LoadSec = meanP95(res.PageLoadSec)
	if _, err := tp.release(); err != nil {
		return nil, err
	}
	return res, nil
}

// TelnetWorkload describes an interactive typing stream.
type TelnetWorkload struct {
	// Keystrokes is the number of writes.
	Keystrokes int
	// Interval is the fixed time between writes (a steady typist).
	Interval time.Duration
	// WriteSize is the payload per write (1 for raw characters; a few
	// bytes for line-buffered input).
	WriteSize units.ByteSize
}

// TelnetResult carries the per-keystroke latencies.
type TelnetResult struct {
	Completed   bool
	LatencySec  []float64
	MeanLatency float64
	P95Latency  float64
	Timeouts    uint64
}

// RunTelnet executes an interactive workload: writes are produced on
// schedule regardless of delivery progress (a typist does not wait for
// echoes), and each write's latency is measured to its in-order delivery
// at the mobile host.
func RunTelnet(cfg Config, tl TelnetWorkload) (*TelnetResult, error) {
	if tl.Keystrokes <= 0 || tl.WriteSize <= 0 || tl.Interval <= 0 {
		return nil, errors.New("core: telnet workload needs keystrokes, a write size, and an interval")
	}
	if cfg.Scheme == bs.SplitConnection || cfg.Scheme == bs.Snoop {
		return nil, errors.New("core: workload runners support the in-path schemes only")
	}
	cfg.TransferSize = units.ByteSize(tl.Keystrokes) * tl.WriteSize
	// Interactive segments are tiny; make the MSS match the write so each
	// keystroke is one segment (character-at-a-time telnet).
	cfg.PacketSize = tl.WriteSize + PaperHeader
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	tp, err := newTopology(cfg, true)
	if err != nil {
		return nil, err
	}
	tp.tap(cfg, false)

	res := &TelnetResult{}
	produced := make([]time.Duration, 0, tl.Keystrokes)
	delivered := 0

	tp.sink.SetDeliveredHook(func(total units.ByteSize) {
		for delivered < len(produced) &&
			units.ByteSize(delivered+1)*tl.WriteSize <= total {
			res.LatencySec = append(res.LatencySec,
				(tp.sim.Now() - produced[delivered]).Seconds())
			delivered++
		}
	})

	var produce func()
	produce = func() {
		produced = append(produced, tp.sim.Now())
		tp.sender.MakeAvailable(tl.WriteSize)
		if len(produced) < tl.Keystrokes {
			tp.sim.Schedule(tl.Interval, produce)
		}
	}
	tp.sender.Start() // ahead of run's own: the first write's segments are scheduled before the next write
	produce()
	done := func() bool { return delivered >= tl.Keystrokes }
	if err := orStall(tp.run(context.TODO(), cfg, done)); err != nil {
		tp.release()
		return nil, err
	}
	res.Completed = delivered == tl.Keystrokes
	res.Timeouts = tp.sender.Stats().Timeouts
	res.MeanLatency, res.P95Latency = meanP95(res.LatencySec)
	if _, err := tp.release(); err != nil {
		return nil, err
	}
	return res, nil
}

// meanP95 summarizes a latency sample.
func meanP95(xs []float64) (mean, p95 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	idx := int(float64(len(sorted))*0.95) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(sorted)), sorted[idx]
}
