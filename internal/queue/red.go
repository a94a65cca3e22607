package queue

import (
	"errors"

	"wtcp/internal/sim"
)

// REDConfig parameterizes Random Early Detection [Floyd & Jacobson 93],
// the active-queue-management algorithm behind the ECN proposal the paper
// cites [Floyd 94]. Queue length is smoothed with an EWMA; between the
// two thresholds arrivals are marked with a probability that rises
// linearly to MaxP (with the standard count correction that spaces marks
// out evenly); above MaxThreshold every arrival is marked.
type REDConfig struct {
	// MinThreshold and MaxThreshold are average-queue-length bounds, in
	// packets.
	MinThreshold float64
	MaxThreshold float64
	// MaxP is the marking probability as the average reaches
	// MaxThreshold.
	MaxP float64
	// Weight is the EWMA gain applied per arrival (classic RED uses
	// 0.002 at line rate; coarser simulations use larger values).
	Weight float64
}

// Validate reports whether the configuration is usable.
func (c REDConfig) Validate() error {
	switch {
	case c.MinThreshold < 0:
		return errors.New("queue: negative RED min threshold")
	case c.MaxThreshold <= c.MinThreshold:
		return errors.New("queue: RED max threshold must exceed min")
	case c.MaxP <= 0 || c.MaxP > 1:
		return errors.New("queue: RED MaxP outside (0,1]")
	case c.Weight <= 0 || c.Weight > 1:
		return errors.New("queue: RED weight outside (0,1]")
	default:
		return nil
	}
}

// RED is the detector state. It is a policy object: the owner consults
// ShouldMark at each arrival and applies the verdict (ECN-mark or drop).
type RED struct {
	cfg   REDConfig
	avg   float64
	count int // arrivals since the last mark while in the marking band
}

// NewRED builds a detector.
func NewRED(cfg REDConfig) (*RED, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RED{cfg: cfg, count: -1}, nil
}

// ShouldMark updates the average with the instantaneous queue length and
// reports whether this arrival should be marked (or dropped, for a
// non-ECN deployment).
func (r *RED) ShouldMark(queueLen int, rng *sim.RNG) bool {
	r.avg += r.cfg.Weight * (float64(queueLen) - r.avg)
	switch {
	case r.avg < r.cfg.MinThreshold:
		r.count = -1
		return false
	case r.avg >= r.cfg.MaxThreshold:
		r.count = 0
		return true
	default:
		r.count++
		p := r.cfg.MaxP * (r.avg - r.cfg.MinThreshold) / (r.cfg.MaxThreshold - r.cfg.MinThreshold)
		// Count correction spaces marks roughly uniformly.
		if denom := 1 - float64(r.count)*p; denom > 0 {
			p /= denom
		} else {
			p = 1
		}
		if rng.Bernoulli(p) {
			r.count = 0
			return true
		}
		return false
	}
}
