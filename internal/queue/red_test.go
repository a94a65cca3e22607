package queue

import (
	"testing"

	"wtcp/internal/sim"
)

func validRED() REDConfig {
	return REDConfig{MinThreshold: 5, MaxThreshold: 15, MaxP: 0.1, Weight: 0.2}
}

func TestREDConfigValidate(t *testing.T) {
	if err := validRED().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*REDConfig)
	}{
		{"negative min", func(c *REDConfig) { c.MinThreshold = -1 }},
		{"max not above min", func(c *REDConfig) { c.MaxThreshold = c.MinThreshold }},
		{"zero maxp", func(c *REDConfig) { c.MaxP = 0 }},
		{"maxp above one", func(c *REDConfig) { c.MaxP = 1.5 }},
		{"zero weight", func(c *REDConfig) { c.Weight = 0 }},
		{"weight above one", func(c *REDConfig) { c.Weight = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validRED()
			tt.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Error("invalid config accepted")
			}
			if _, err := NewRED(cfg); err == nil {
				t.Error("NewRED accepted invalid config")
			}
		})
	}
}

func TestREDNeverMarksBelowMin(t *testing.T) {
	r, err := NewRED(validRED())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if r.ShouldMark(3, rng) { // instantaneous 3 < min 5, avg stays below
			t.Fatal("marked below the minimum threshold")
		}
	}
}

func TestREDAlwaysMarksAboveMax(t *testing.T) {
	r, err := NewRED(validRED())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	// Drive the average above max with a persistently long queue.
	for i := 0; i < 200; i++ {
		r.ShouldMark(40, rng)
	}
	if r.avg < 15 {
		t.Fatalf("average %v did not reach max threshold", r.avg)
	}
	for i := 0; i < 100; i++ {
		if !r.ShouldMark(40, rng) {
			t.Fatal("arrival not marked above the max threshold")
		}
	}
}

func TestREDMarksProbabilisticallyBetweenThresholds(t *testing.T) {
	r, err := NewRED(REDConfig{MinThreshold: 5, MaxThreshold: 15, MaxP: 0.1, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	marks := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.ShouldMark(10, rng) { // exactly mid-band with weight 1
			marks++
		}
	}
	rate := float64(marks) / n
	// Base probability is MaxP/2 = 0.05; the count correction raises the
	// effective rate toward ~1/ceil(1/p)... accept a broad band that
	// excludes "never" and "always".
	if rate < 0.03 || rate > 0.25 {
		t.Errorf("mid-band mark rate = %v, want moderate", rate)
	}
}

func TestREDAverageTracksQueue(t *testing.T) {
	r, err := NewRED(validRED())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		r.ShouldMark(10, rng)
	}
	if avg := r.avg; avg < 9.5 || avg > 10.5 {
		t.Errorf("EWMA = %v after steady queue of 10", avg)
	}
	for i := 0; i < 100; i++ {
		r.ShouldMark(0, rng)
	}
	if avg := r.avg; avg > 0.5 {
		t.Errorf("EWMA = %v after steady empty queue", avg)
	}
}
