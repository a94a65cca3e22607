package experiment

import (
	"context"
	"math"
	"testing"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/units"
)

// TestFig9ReadsTheFig7And8Runs pins the premise for folding Figure 9
// into the Figure 7/8 points: Fig 9 simulates the same runs again. Each
// (scheme, bad period, size, seed) of a 2x2 grid is run once here, and
// the values Fig 7/8 report (throughput, goodput) and the values Fig 9
// reports (retransmitted KB, timeouts) are all columns of that one run,
// bit for bit.
func TestFig9ReadsTheFig7And8Runs(t *testing.T) {
	opt := Options{
		Replications: 2,
		Transfer:     40 * units.KB,
		PacketSizes:  []units.ByteSize{256, 1024},
		BadPeriods:   []time.Duration{time.Second, 4 * time.Second},
	}
	ctx := context.Background()
	fig7, err := Fig7(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig7)+len(fig8) != 8 || len(fig9) != 8 {
		t.Fatalf("points: fig7+fig8 %d, fig9 %d; want 8 and 8", len(fig7)+len(fig8), len(fig9))
	}
	tput := append(fig7, fig8...)
	for i, r := range fig9 {
		tp := tput[i]
		if tp.Scheme != r.Scheme || tp.BadPeriod != r.BadPeriod || tp.PacketSize != r.PacketSize {
			t.Fatalf("point %d: fig7/8 at %v/%v/%v, fig9 at %v/%v/%v", i,
				tp.Scheme, tp.BadPeriod, tp.PacketSize, r.Scheme, r.BadPeriod, r.PacketSize)
		}
		cols := map[string][]float64{
			"throughput": tp.ThroughputKbps.Values(), "goodput": tp.Goodput.Values(),
			"retransmitted": r.RetransKB.Values(), "timeouts": r.Timeouts.Values(),
		}
		for seed := int64(1); seed <= int64(opt.Replications); seed++ {
			res, err := core.RunContext(ctx, opt.WithDefaults().configure(core.WAN(r.Scheme, r.PacketSize, r.BadPeriod), seed))
			if err != nil || !res.Completed {
				t.Fatalf("%v/%v/%v seed %d: err %v, completed %v", r.Scheme, r.BadPeriod, r.PacketSize, seed, err, res != nil && res.Completed)
			}
			want := map[string]float64{
				"throughput": res.Summary.ThroughputKbps, "goodput": res.Summary.Goodput,
				"retransmitted": res.Summary.RetransmittedKB(), "timeouts": float64(res.Summary.Timeouts),
			}
			for name, w := range want {
				if got := cols[name][seed-1]; math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("%v/%v/%v seed %d: %s reported %v, the run's is %v", r.Scheme, r.BadPeriod, r.PacketSize, seed, name, got, w)
				}
			}
		}
	}
}
