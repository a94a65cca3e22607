package core

import (
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/units"
)

func webWL() WebWorkload {
	return WebWorkload{Pages: 8, PageSize: 8 * units.KB, ThinkTime: 2 * time.Second}
}

func TestWorkloadValidation(t *testing.T) {
	cfg := WAN(bs.Basic, 576, time.Second)
	if _, err := RunWeb(cfg, WebWorkload{}); err == nil {
		t.Error("empty web workload accepted")
	}
	for _, scheme := range []bs.Scheme{bs.Snoop, bs.SplitConnection} {
		cfg := WAN(scheme, 576, time.Second)
		if _, err := RunWeb(cfg, webWL()); err == nil {
			t.Errorf("web accepted %v", scheme)
		}
	}
}

func TestWebWorkloadCompletes(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN} {
		r, err := RunWeb(WAN(scheme, 576, 4*time.Second), webWL())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatalf("%v: only %d pages loaded", scheme, len(r.PageLoadSec))
		}
		if len(r.PageLoadSec) != 8 {
			t.Fatalf("%v: %d page samples", scheme, len(r.PageLoadSec))
		}
		for i, sec := range r.PageLoadSec {
			if sec <= 0 {
				t.Errorf("%v page %d load = %v", scheme, i, sec)
			}
		}
		if r.P95LoadSec < r.MeanLoadSec {
			t.Errorf("%v: p95 %.2f below mean %.2f", scheme, r.P95LoadSec, r.MeanLoadSec)
		}
	}
}

func TestWebEBSNImprovesPageLoads(t *testing.T) {
	mean := func(scheme bs.Scheme) (m, p95 float64) {
		const n = 3
		for seed := int64(1); seed <= n; seed++ {
			cfg := WAN(scheme, 576, 4*time.Second)
			cfg.Seed = seed
			r, err := RunWeb(cfg, webWL())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v seed %d incomplete", scheme, seed)
			}
			m += r.MeanLoadSec / n
			p95 += r.P95LoadSec / n
		}
		return m, p95
	}
	bMean, bP95 := mean(bs.Basic)
	eMean, eP95 := mean(bs.EBSN)
	if eMean >= bMean {
		t.Errorf("EBSN mean page load %.2fs not below basic %.2fs", eMean, bMean)
	}
	if eP95 >= bP95 {
		t.Errorf("EBSN p95 page load %.2fs not below basic %.2fs", eP95, bP95)
	}
}

func TestWorkloadCleanChannelFast(t *testing.T) {
	cfg := WAN(bs.Basic, 576, time.Second)
	cfg.Channel.GoodBER = 0
	cfg.Channel.BadBER = 0
	r, err := RunWeb(cfg, webWL())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("clean web run incomplete")
	}
	// A page is 8 832 bytes in 576-byte packets across the 12.8 kbps
	// effective radio, about 5.5 s of air time; with the wired hop and
	// slow start, a clean load stays under 8 s.
	if r.P95LoadSec > 8 {
		t.Errorf("clean-channel p95 page load = %.2fs", r.P95LoadSec)
	}
	if r.Timeouts != 0 {
		t.Errorf("clean-channel timeouts = %d", r.Timeouts)
	}
}
