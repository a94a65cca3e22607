package analytic

import (
	"math"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/errmodel"
	"wtcp/internal/units"
)

func TestHeaderEfficiency(t *testing.T) {
	tests := []struct {
		size units.ByteSize
		want float64
	}{
		{128, 88.0 / 128},
		{576, 536.0 / 576},
		{1536, 1496.0 / 1536},
		{40, 0},
		{10, 0},
	}
	for _, tt := range tests {
		if got := HeaderEfficiency(tt.size); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("HeaderEfficiency(%d) = %v, want %v", tt.size, got, tt.want)
		}
	}
}

func TestFadeHitProbability(t *testing.T) {
	if got := FadeHitProbability(0, 10*time.Second); got != 0 {
		t.Errorf("zero air time hit prob = %v", got)
	}
	// 1s transmission against 10s mean good: 1-e^-0.1 ~ 0.0952.
	got := FadeHitProbability(time.Second, 10*time.Second)
	if math.Abs(got-0.09516) > 0.0005 {
		t.Errorf("hit prob = %v", got)
	}
	if got := FadeHitProbability(time.Second, 0); got != 1 {
		t.Errorf("degenerate mean good = %v", got)
	}
}

// TestEBSNSimulationApproachesAnalyticCeiling is the validation headline:
// the simulated EBSN throughput lands within ~15% of the closed-form
// ceiling across the WAN sweep.
func TestEBSNSimulationApproachesAnalyticCeiling(t *testing.T) {
	for _, bad := range []time.Duration{time.Second, 4 * time.Second} {
		for _, size := range []units.ByteSize{512, 1536} {
			var mean float64
			const reps = 3
			for seed := int64(1); seed <= reps; seed++ {
				cfg := core.WAN(bs.EBSN, size, bad)
				cfg.Seed = seed
				r, err := core.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				mean += r.Summary.ThroughputKbps / reps
			}
			ceiling := EBSNCeilingKbps(12800, size, errmodel.PaperWAN(bad))
			if mean < 0.75*ceiling || mean > 1.15*ceiling {
				t.Errorf("bad=%v size=%d: simulated %.2f vs analytic ceiling %.2f",
					bad, size, mean, ceiling)
			}
		}
	}
}
