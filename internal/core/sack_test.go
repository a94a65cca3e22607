package core

import (
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/units"
)

// TestSACKDoesNotFixBurstLoss captures an ablation insight that supports
// the paper's premise: selective acknowledgments, which repair scattered
// losses cheaply, barely help under the paper's *burst* losses — a fade
// kills the whole window, so there is nothing out-of-order left at the
// receiver to acknowledge selectively. End-to-end TCP machinery cannot
// substitute for link-layer recovery here. It logs both means (-v).
func TestSACKDoesNotFixBurstLoss(t *testing.T) {
	const n = 5
	mean := func(sack bool) float64 {
		var sum float64
		for seed := int64(1); seed <= n; seed++ {
			cfg := WAN(bs.Basic, 576, 4*time.Second)
			cfg.SACK = sack
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Completed {
				t.Fatal("did not complete")
			}
			sum += r.Summary.ThroughputKbps / n
		}
		return sum
	}
	plain := mean(false)
	sacked := mean(true)
	t.Logf("basic TCP, 576B packets, mean bad 4s, %d seeds: %.2f kbps without SACK, %.2f with", n, plain, sacked)
	// SACK must not hurt, and the paper-scale gain stays marginal
	// (< 15%) — nowhere near EBSN's ~50-100%.
	if sacked < plain*0.85 {
		t.Errorf("SACK hurt burst-loss throughput: %.2f vs %.2f", sacked, plain)
	}
	if sacked > plain*1.15 {
		t.Errorf("SACK gain %.2f vs %.2f suspiciously large for burst losses", sacked, plain)
	}
}

// TestSACKHelpsScatteredLoss is the control: under light random (non
// burst) loss, SACK does reduce redundant retransmissions.
func TestSACKHelpsScatteredLoss(t *testing.T) {
	run := func(sack bool) (retxKB float64, skipped uint64) {
		var sum float64
		var skips uint64
		const n = 5
		for seed := int64(1); seed <= n; seed++ {
			cfg := WAN(bs.Basic, 1536, time.Second)
			// Scattered loss: frequent, very short fades.
			cfg.Channel.MeanGood = 2 * time.Second
			cfg.Channel.MeanBad = 120 * time.Millisecond
			cfg.TransferSize = 60 * units.KB
			cfg.SACK = sack
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.Summary.RetransmittedKB() / n
			skips += r.Sender.SACKSkippedSegments
		}
		return sum, skips
	}
	plainRetx, _ := run(false)
	sackRetx, skips := run(true)
	if skips == 0 {
		t.Fatal("no scoreboard skips on these fixed seeds: the scattered-loss premise is lost")
	}
	if sackRetx > plainRetx {
		t.Errorf("SACK retransmitted more under scattered loss: %.1fKB vs %.1fKB",
			sackRetx, plainRetx)
	}
}
