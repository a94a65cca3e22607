package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/units"
)

// The paper motivates the study with "popular applications like ftp,
// telnet, www-access" but evaluates only bulk transfer (ftp). RunWeb puts
// www-access on the same FH-BS-MH topology: request/response pages — a
// burst of page bytes, a pause until the mobile host has the whole page,
// a think time, repeat. The metric is page-load latency.
//
// It uses the streaming sender: bytes become sendable when the
// application produces them. Supervision is armed as for a bulk run, so an
// application pause as long as an armed stall window is a *sim.StallError.

// WebWorkload describes a page-fetch sequence.
type WebWorkload struct {
	// Pages is the number of page downloads.
	Pages int
	// PageSize is the payload of every page.
	PageSize units.ByteSize
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
	if web.Pages <= 0 || web.PageSize <= 0 {
		return nil, errors.New("core: web workload needs pages and a page size")
	}
	if cfg.Scheme == bs.SplitConnection || cfg.Scheme == bs.Snoop {
		return nil, errors.New("core: workload runners support the in-path schemes only")
	}
	cfg.TransferSize = units.ByteSize(web.Pages) * web.PageSize
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tp, err := newTopology(cfg, true)
	if err != nil {
		return nil, err
	}
	tp.tap(cfg, false)

	res := &WebResult{}
	var pageStart time.Duration
	var nextBoundary units.ByteSize

	startPage := func() {
		pageStart = tp.sim.Now()
		nextBoundary += web.PageSize
		tp.sender.MakeAvailable(web.PageSize)
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
