package experiment

import (
	"context"
	"fmt"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/units"
)

// This file is the one description of a figure-sweep point: the point
// as a value (PointSpec), the enumeration of a sweep's grid in canonical
// order (SweepSpecs), the point's ledger key (Key), and how its runs
// are configured and measured (point). The figure sweeps in
// experiment.go, wtcpd's sweep and advise executors and the fleet
// coordinator all iterate SweepSpecs and settle each spec through the
// Ledger; fleet workers execute one in isolation with RunPointSpec and
// post the outcome back. One description is what makes every executor's
// output bit-identical to every other's.

// Sweep names accepted by SweepSpecs (the campaign manifest's "sweeps"
// list).
const (
	SweepFig7 = "fig7" // WAN throughput vs packet size, basic TCP
	SweepFig8 = "fig8" // WAN throughput vs packet size, EBSN
	SweepFig9 = "fig9" // WAN retransmitted data, both schemes
	SweepLAN  = "lan"  // LAN throughput + retransmitted data, both schemes
)

// PointSpec identifies one sweep point of a named figure sweep. It is
// pure data — JSON-serializable, comparable — and, together with the
// campaign Options, determines the point's replication function and
// its checkpoint key.
type PointSpec struct {
	// Sweep is one of the Sweep* constants.
	Sweep string `json:"sweep"`
	// Scheme is the bs.Scheme name ("basic", "ebsn", ...).
	Scheme string `json:"scheme"`
	// Bad is the mean bad-period for the point.
	Bad time.Duration `json:"bad_ns"`
	// Size is the wired packet size; zero for LAN points (the LAN sweep
	// does not sweep packet size).
	Size units.ByteSize `json:"size_bytes,omitempty"`
}

// Key returns the point's checkpoint-ledger key. These strings are
// load-bearing: every checkpoint file on disk is keyed by them.
func (s PointSpec) Key() (string, error) {
	scheme, err := bs.ParseScheme(s.Scheme)
	if err != nil {
		return "", fmt.Errorf("experiment: point spec: %w", err)
	}
	switch s.Sweep {
	case SweepFig7, SweepFig8:
		return fmt.Sprintf("wan/%v/bad=%v/size=%d", scheme, s.Bad, s.Size), nil
	case SweepFig9:
		return fmt.Sprintf("fig9/%v/bad=%v/size=%d", scheme, s.Bad, s.Size), nil
	case SweepLAN:
		return fmt.Sprintf("lan/%v/bad=%v", scheme, s.Bad), nil
	default:
		return "", fmt.Errorf("experiment: point spec: unknown sweep %q (want %s, %s, %s, or %s)",
			s.Sweep, SweepFig7, SweepFig8, SweepFig9, SweepLAN)
	}
}

// maxSweepPoints bounds the grid SweepSpecs enumerates. The paper's
// whole grid, all four sweeps on the default axes, is under 250 points;
// a campaign manifest small enough to pass the request body limit can
// name billions, which enumerating would exhaust memory on.
const maxSweepPoints = 1 << 14

// SweepSpecs enumerates the full point grid of the named sweeps under
// opt in canonical order: the order the figure functions aggregate in
// (so it fixes their output order and where a quarantine lands in
// Health's list) and the order coordinator logs and snapshots follow. A
// grid of more than maxSweepPoints points is refused before it is
// enumerated.
func SweepSpecs(opt Options, sweeps []string) ([]PointSpec, error) {
	opt = opt.WithDefaults()
	wan, lan := len(opt.WANBadAxis())*len(opt.SizeAxis()), len(opt.LANBadAxis())
	n := 0
	for _, sweep := range sweeps {
		switch sweep {
		case SweepFig7, SweepFig8:
			n += wan
		case SweepFig9:
			n += 2 * wan
		case SweepLAN:
			n += 2 * lan
		}
		if n > maxSweepPoints {
			return nil, fmt.Errorf("experiment: the sweeps name over %d points (from %d sweeps, %d packet sizes and %d bad periods); split them",
				maxSweepPoints, len(sweeps), len(opt.SizeAxis()), len(opt.WANBadAxis()))
		}
	}
	var out []PointSpec
	for _, sweep := range sweeps {
		switch sweep {
		case SweepFig7, SweepFig8:
			scheme := bs.Basic
			if sweep == SweepFig8 {
				scheme = bs.EBSN
			}
			for _, bad := range opt.WANBadAxis() {
				for _, size := range opt.SizeAxis() {
					out = append(out, PointSpec{Sweep: sweep, Scheme: scheme.String(), Bad: bad, Size: size})
				}
			}
		case SweepFig9:
			for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
				for _, bad := range opt.WANBadAxis() {
					for _, size := range opt.SizeAxis() {
						out = append(out, PointSpec{Sweep: sweep, Scheme: scheme.String(), Bad: bad, Size: size})
					}
				}
			}
		case SweepLAN:
			for _, scheme := range []bs.Scheme{bs.Basic, bs.EBSN} {
				for _, bad := range opt.LANBadAxis() {
					out = append(out, PointSpec{Sweep: sweep, Scheme: scheme.String(), Bad: bad})
				}
			}
		default:
			return nil, fmt.Errorf("experiment: unknown sweep %q (want %s, %s, %s, or %s)",
				sweep, SweepFig7, SweepFig8, SweepFig9, SweepLAN)
		}
	}
	return out, nil
}

// point resolves the spec into what the ledger settles: its key, and the
// function the scheduler runs per seed — how one replication is
// configured (from the 1-based replication seed) and which measurements
// of its result the point records, in column order. The figure
// functions in experiment.go read those columns back by index.
func (s PointSpec) point(opt Options) (point, error) {
	key, err := s.Key()
	if err != nil {
		return point{}, err
	}
	scheme, _ := bs.ParseScheme(s.Scheme) // Key vetted it
	preset := func(seed int64) core.Config { return opt.configure(core.WAN(scheme, s.Size, s.Bad), seed) }
	var measure func(r *core.Result) ([]float64, error)
	switch s.Sweep {
	case SweepFig7, SweepFig8:
		measure = func(r *core.Result) ([]float64, error) {
			return []float64{r.Summary.ThroughputKbps, r.Summary.Goodput}, nil
		}
	case SweepFig9:
		measure = func(r *core.Result) ([]float64, error) {
			return []float64{r.Summary.RetransmittedKB(), float64(r.Summary.Timeouts)}, nil
		}
	case SweepLAN:
		preset = func(seed int64) core.Config { return opt.configure(core.LAN(scheme, s.Bad), seed) }
		measure = func(r *core.Result) ([]float64, error) {
			return []float64{r.Summary.ThroughputMbps, r.Summary.RetransmittedKB(), float64(r.Summary.Timeouts)}, nil
		}
	}
	return point{key, coreReplication(preset, measure)}, nil
}

// PointOutcome is the result of executing one PointSpec: exactly one of
// Reps (the seed-ordered replication records) or Quarantine (the point
// tripped its circuit breaker) is set.
type PointOutcome struct {
	Key        string      `json:"key"`
	Reps       []RepRecord `json:"reps,omitempty"`
	Quarantine *Quarantine `json:"quarantine,omitempty"`
}

// pointsOf resolves specs into points.
func pointsOf(opt Options, specs []PointSpec) ([]point, error) {
	points := make([]point, len(specs))
	for i, spec := range specs {
		var err error
		if points[i], err = spec.point(opt); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// RunPointSpec executes one sweep point as Ledger.Settle would, on
// Workers slots, but with no ledger: the caller (a fleet worker) owns
// delivering the outcome to the coordinator's Ledger.Record. It returns
// the seed-ordered records, a Quarantine when the breaker trips, or an
// error (fail-fast classes, cancellation).
func RunPointSpec(ctx context.Context, opt Options, spec PointSpec) (PointOutcome, error) {
	opt = opt.WithDefaults()
	outs, err := (*Ledger)(nil).Settle(ctx, opt, []PointSpec{spec}, opt.slots())
	if err != nil {
		return PointOutcome{}, err
	}
	return outs[0], nil
}
