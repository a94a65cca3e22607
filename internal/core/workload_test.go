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

func telnetWL() TelnetWorkload {
	return TelnetWorkload{Keystrokes: 100, Interval: 500 * time.Millisecond, WriteSize: 4}
}

func TestWorkloadValidation(t *testing.T) {
	cfg := WAN(bs.Basic, 576, time.Second)
	if _, err := RunWeb(cfg, WebWorkload{}); err == nil {
		t.Error("empty web workload accepted")
	}
	if _, err := RunTelnet(cfg, TelnetWorkload{}); err == nil {
		t.Error("empty telnet workload accepted")
	}
	for _, scheme := range []bs.Scheme{bs.Snoop, bs.SplitConnection} {
		cfg := WAN(scheme, 576, time.Second)
		if _, err := RunWeb(cfg, webWL()); err == nil {
			t.Errorf("web accepted %v", scheme)
		}
		if _, err := RunTelnet(cfg, telnetWL()); err == nil {
			t.Errorf("telnet accepted %v", scheme)
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

func TestTelnetWorkloadCompletes(t *testing.T) {
	r, err := RunTelnet(WAN(bs.EBSN, 576, 4*time.Second), telnetWL())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("delivered %d keystroke latencies", len(r.LatencySec))
	}
	if len(r.LatencySec) != 100 {
		t.Fatalf("latency samples = %d", len(r.LatencySec))
	}
	// Baseline latency on a clean path is a few hundred ms (wired
	// 50 ms prop + serialization); even the mean under fades stays
	// bounded.
	if r.MeanLatency <= 0 || r.MeanLatency > 60 {
		t.Errorf("mean latency = %.3fs", r.MeanLatency)
	}
}

func TestTelnetEBSNImprovesLatency(t *testing.T) {
	mean := func(scheme bs.Scheme) float64 {
		var sum float64
		const n = 3
		for seed := int64(1); seed <= n; seed++ {
			cfg := WAN(scheme, 576, 4*time.Second)
			cfg.Seed = seed
			r, err := RunTelnet(cfg, telnetWL())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatalf("%v seed %d incomplete", scheme, seed)
			}
			sum += r.MeanLatency / n
		}
		return sum
	}
	basic := mean(bs.Basic)
	ebsn := mean(bs.EBSN)
	if ebsn >= basic {
		t.Errorf("EBSN keystroke latency %.3fs not below basic %.3fs", ebsn, basic)
	}
}

func TestWorkloadCleanChannelFast(t *testing.T) {
	cfg := WAN(bs.Basic, 576, time.Second)
	cfg.Channel.GoodBER = 0
	cfg.Channel.BadBER = 0
	r, err := RunTelnet(cfg, telnetWL())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("clean telnet incomplete")
	}
	// ~50ms wired prop + ~30ms serialization + 5ms radio: well under 1s.
	if r.P95Latency > 1.0 {
		t.Errorf("clean-channel p95 keystroke latency = %.3fs", r.P95Latency)
	}
	if r.Timeouts != 0 {
		t.Errorf("clean-channel timeouts = %d", r.Timeouts)
	}
}
