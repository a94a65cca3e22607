package errmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wtcp/internal/sim"
)

func mustMarkov(t *testing.T, cfg Config, seed int64) *Markov {
	t.Helper()
	m, err := NewMarkov(cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("NewMarkov: %v", err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"paper WAN", PaperWAN(2 * time.Second), false},
		{"paper LAN", PaperLAN(time.Second), false},
		{"negative good BER", Config{GoodBER: -1, MeanGood: time.Second}, true},
		{"BER above one", Config{BadBER: 1.5, MeanGood: time.Second}, true},
		{"zero good period", Config{MeanBad: time.Second}, true},
		{"negative bad period", Config{MeanGood: time.Second, MeanBad: -time.Second}, true},
		{"zero bad period ok", Config{MeanGood: time.Second}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewMarkovRejectsInvalid(t *testing.T) {
	if _, err := NewMarkov(Config{}, sim.NewRNG(1)); err == nil {
		t.Error("NewMarkov accepted zero config")
	}
}

func TestGoodFraction(t *testing.T) {
	tests := []struct {
		good, bad time.Duration
		want      float64
	}{
		{10 * time.Second, time.Second, 10.0 / 11},
		{10 * time.Second, 4 * time.Second, 10.0 / 14},
		{4 * time.Second, 400 * time.Millisecond, 10.0 / 11},
		{time.Second, 0, 1},
	}
	for _, tt := range tests {
		cfg := Config{MeanGood: tt.good, MeanBad: tt.bad}
		if got := cfg.GoodFraction(); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("GoodFraction(%v,%v) = %v, want %v", tt.good, tt.bad, got, tt.want)
		}
	}
}

func TestDeterministicTimeline(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)

	// The paper's Figure 3-5 schedule: good 0-10, bad 10-14, good 14-24,
	// bad 24-28, ...
	tests := []struct {
		at   time.Duration
		want State
	}{
		{0, Good},
		{9*time.Second + 999*time.Millisecond, Good},
		{10 * time.Second, Bad},
		{13 * time.Second, Bad},
		{14 * time.Second, Good},
		{23 * time.Second, Good},
		{24 * time.Second, Bad},
		{27 * time.Second, Bad},
		{28 * time.Second, Good},
		{56 * time.Second, Bad}, // third bad period 52-56... check: cycle 14s; bad at [10,14)+14k: 52-56 → 56 is good start
	}
	// Recompute the last expectation: bad periods are [10,14), [24,28),
	// [38,42), [52,56). So 56s is Good.
	tests[len(tests)-1].want = Good
	for _, tt := range tests {
		if got := m.StateAt(tt.at); got != tt.want {
			t.Errorf("StateAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestStateAtNegativeTimeClamps(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)
	if got := m.StateAt(-5 * time.Second); got != Good {
		t.Errorf("StateAt(-5s) = %v, want Good", got)
	}
}

func TestStartStateBad(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	cfg.Start = Bad
	m := mustMarkov(t, cfg, 1)
	if got := m.StateAt(0); got != Bad {
		t.Errorf("StateAt(0) = %v, want Bad", got)
	}
	if got := m.StateAt(5 * time.Second); got != Good {
		t.Errorf("StateAt(5s) = %v, want Good (bad period is 4s)", got)
	}
}

func TestExpectedBitErrorsSingleState(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)

	// Entirely inside the first good period: mean = 1e-6 * bits.
	got := m.ExpectedBitErrors(time.Second, 2*time.Second, 1536)
	want := 1e-6 * 1536
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("good-state mean = %v, want %v", got, want)
	}

	// Entirely inside the first bad period.
	got = m.ExpectedBitErrors(11*time.Second, 12*time.Second, 1536)
	want = 1e-2 * 1536
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bad-state mean = %v, want %v", got, want)
	}
}

func TestExpectedBitErrorsStraddlesBoundary(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)

	// Transmission spanning 9.5s-10.5s: half good, half bad.
	got := m.ExpectedBitErrors(9500*time.Millisecond, 10500*time.Millisecond, 1000)
	want := 0.5*1e-6*1000 + 0.5*1e-2*1000
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("straddling mean = %v, want %v", got, want)
	}
}

func TestExpectedBitErrorsSpansMultiplePeriods(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)

	// 8s-16s spans good(8-10)=2s, bad(10-14)=4s, good(14-16)=2s.
	bits := int64(8000)
	got := m.ExpectedBitErrors(8*time.Second, 16*time.Second, bits)
	want := (2.0/8)*1e-6*8000 + (4.0/8)*1e-2*8000 + (2.0/8)*1e-6*8000
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("multi-period mean = %v, want %v", got, want)
	}
}

func TestExpectedBitErrorsEdgeCases(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	cfg.Deterministic = true
	m := mustMarkov(t, cfg, 1)

	if got := m.ExpectedBitErrors(time.Second, 2*time.Second, 0); got != 0 {
		t.Errorf("zero bits mean = %v, want 0", got)
	}
	// Instantaneous transmission attributed to state at start.
	got := m.ExpectedBitErrors(11*time.Second, 11*time.Second, 100)
	if math.Abs(got-1.0) > 1e-9 { // 1e-2 * 100
		t.Errorf("instantaneous mean = %v, want 1.0", got)
	}
}

func TestStochasticHoldingTimes(t *testing.T) {
	cfg := PaperWAN(2 * time.Second)
	m := mustMarkov(t, cfg, 42)
	ivs := m.Intervals(20000 * time.Second)
	if len(ivs) < 100 {
		t.Fatalf("only %d intervals in 20000s", len(ivs))
	}
	var goodSum, badSum float64
	var goodN, badN int
	for i := 0; i+1 < len(ivs); i++ {
		d := (ivs[i+1].Start - ivs[i].Start).Seconds()
		if ivs[i].State == Good {
			goodSum += d
			goodN++
		} else {
			badSum += d
			badN++
		}
	}
	gm, bm := goodSum/float64(goodN), badSum/float64(badN)
	if gm < 9 || gm > 11 {
		t.Errorf("mean good period = %vs, want ~10s", gm)
	}
	if bm < 1.8 || bm > 2.2 {
		t.Errorf("mean bad period = %vs, want ~2s", bm)
	}
	// States must strictly alternate.
	for i := 0; i+1 < len(ivs); i++ {
		if ivs[i].State == ivs[i+1].State {
			t.Fatal("adjacent intervals share a state")
		}
	}
}

// TestHoldingTimesAreExponentialKS validates §3.1's distributional claim
// rigorously: a Kolmogorov-Smirnov test must not reject exponential
// holding times for either state at the 1% level.
func TestHoldingTimesAreExponentialKS(t *testing.T) {
	cfg := PaperWAN(2 * time.Second)
	m := mustMarkov(t, cfg, 21)
	ivs := m.Intervals(40000 * time.Second)
	var good, bad []float64
	for i := 0; i+1 < len(ivs); i++ {
		d := (ivs[i+1].Start - ivs[i].Start).Seconds()
		if ivs[i].State == Good {
			good = append(good, d)
		} else {
			bad = append(bad, d)
		}
	}
	check := func(name string, sample []float64, mean float64) {
		t.Helper()
		if len(sample) < 100 {
			t.Fatalf("%s: only %d holding times", name, len(sample))
		}
		d, err := ksStatistic(sample, exponentialCDF(mean))
		if err != nil {
			t.Fatal(err)
		}
		crit, err := ksCriticalValue(len(sample), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if d > crit {
			t.Errorf("%s holding times rejected as exponential: D=%.4f > %.4f (n=%d)",
				name, d, crit, len(sample))
		}
	}
	check("good", good, 10)
	check("bad", bad, 2)
}

func TestStochasticGoodFractionEmpirical(t *testing.T) {
	cfg := PaperWAN(4 * time.Second)
	m := mustMarkov(t, cfg, 7)
	horizon := 50000 * time.Second
	ivs := m.Intervals(horizon)
	var goodTime time.Duration
	for i := range ivs {
		end := horizon
		if i+1 < len(ivs) {
			end = ivs[i+1].Start
		}
		if end > horizon {
			end = horizon
		}
		if ivs[i].State == Good {
			goodTime += end - ivs[i].Start
		}
	}
	frac := float64(goodTime) / float64(horizon)
	want := cfg.GoodFraction() // 10/14
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("empirical good fraction = %v, want ~%v", frac, want)
	}
}

func TestMarkovDeterministicAcrossSameSeed(t *testing.T) {
	cfg := PaperWAN(3 * time.Second)
	a := mustMarkov(t, cfg, 99)
	b := mustMarkov(t, cfg, 99)
	for ts := time.Duration(0); ts < 100*time.Second; ts += 137 * time.Millisecond {
		if a.StateAt(ts) != b.StateAt(ts) {
			t.Fatalf("same-seed channels diverged at %v", ts)
		}
	}
}

func TestQueriesOutOfOrderConsistent(t *testing.T) {
	cfg := PaperWAN(2 * time.Second)
	m := mustMarkov(t, cfg, 3)
	// Query far future first, then earlier times; answers must agree with
	// a fresh channel queried in order.
	fresh := mustMarkov(t, cfg, 3)
	farState := m.StateAt(500 * time.Second)
	for ts := time.Duration(0); ts <= 500*time.Second; ts += time.Second {
		if m.StateAt(ts) != fresh.StateAt(ts) {
			t.Fatalf("out-of-order query changed timeline at %v", ts)
		}
	}
	if farState != fresh.StateAt(500*time.Second) {
		t.Error("far-future state inconsistent")
	}
}

func TestZeroBadPeriodNeverBad(t *testing.T) {
	cfg := Config{GoodBER: 1e-6, BadBER: 1e-2, MeanGood: time.Second, MeanBad: 0}
	m := mustMarkov(t, cfg, 5)
	for ts := time.Duration(0); ts < 100*time.Second; ts += 100 * time.Millisecond {
		if m.StateAt(ts) != Good {
			t.Fatalf("channel with zero bad period entered bad state at %v", ts)
		}
	}
}

func TestStateString(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

// Property: expected bit errors are additive over adjacent intervals when
// bits are split proportionally, and bounded by BadBER*bits.
func TestPropertyErrorMeanAdditiveAndBounded(t *testing.T) {
	cfg := PaperWAN(2 * time.Second)
	m := mustMarkov(t, cfg, 11)
	f := func(startMs, lenMs uint16, bitsRaw uint16) bool {
		start := time.Duration(startMs) * time.Millisecond
		length := time.Duration(lenMs%5000+2) * time.Millisecond
		bits := int64(bitsRaw) + 2
		end := start + length
		mid := start + length/2
		whole := m.ExpectedBitErrors(start, end, bits)
		// Split bits in proportion to sub-interval length.
		bitsA := float64(bits) * float64(mid-start) / float64(length)
		bitsB := float64(bits) - bitsA
		partA := m.ExpectedBitErrors(start, mid, int64(bitsA))
		partB := m.ExpectedBitErrors(mid, end, int64(bitsB))
		// Integer truncation of split bits loses at most 2 bits' worth.
		slack := 2 * cfg.BadBER
		if partA+partB > whole+slack {
			return false
		}
		return whole <= cfg.BadBER*float64(bits)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: StateAt is piecewise constant — two queries inside the same
// reported interval agree.
func TestPropertyPiecewiseConstant(t *testing.T) {
	cfg := PaperWAN(2 * time.Second)
	m := mustMarkov(t, cfg, 13)
	ivs := m.Intervals(1000 * time.Second)
	for i := 0; i+1 < len(ivs); i++ {
		lo, hi := ivs[i].Start, ivs[i+1].Start
		mid := lo + (hi-lo)/2
		if m.StateAt(lo) != ivs[i].State || m.StateAt(mid) != ivs[i].State {
			t.Fatalf("interval %d not piecewise constant", i)
		}
	}
}
