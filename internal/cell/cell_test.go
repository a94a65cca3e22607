package cell

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/sim"
	"wtcp/internal/units"
)

// smallConfig is a quick multi-flow scenario that completes in well under
// a second of wall time: LAN-ish links, short transfers, mild fading.
func smallConfig(flows int) Config {
	return Config{
		Flows:             flows,
		BaseStations:      1,
		Policy:            RoundRobin,
		TransferSize:      64 * units.KB,
		PacketSize:        1536,
		Window:            16 * units.KB,
		WiredRate:         10 * units.Mbps,
		WiredDelay:        time.Millisecond,
		WirelessRate:      2 * units.Mbps,
		WirelessDelay:     time.Millisecond,
		Channel:           errmodel.PaperLAN(time.Second),
		PredictorAccuracy: 1.0,
		RTmax:             64,
		Seed:              1,
	}
}

func TestRunCompletesSmallPopulation(t *testing.T) {
	for _, policy := range []Policy{FIFO, RoundRobin, CSDP} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := smallConfig(4)
			cfg.Policy = policy
			if policy == CSDP {
				cfg.PredictorAccuracy = 0.9
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Completed || res.CompletedFlows != 4 {
				t.Fatalf("run did not complete: %d/4 flows", res.CompletedFlows)
			}
			for f, fr := range res.Flows {
				if !fr.Completed || fr.Elapsed <= 0 {
					t.Errorf("flow %d: %+v", f, fr)
				}
			}
			if res.AggregateKbps <= 0 {
				t.Errorf("aggregate throughput %v", res.AggregateKbps)
			}
			if res.Fairness <= 0 || res.Fairness > 1 {
				t.Errorf("fairness %v outside (0,1]", res.Fairness)
			}
			if res.RadioAttempts == 0 {
				t.Error("no radio attempts recorded")
			}
			if res.Arena.LiveAtEnd != 0 {
				t.Errorf("arena leaked %d slots", res.Arena.LiveAtEnd)
			}
		})
	}
}

// TestRunDeterminism pins that a seed fully determines a run, and that
// changing the seed actually changes the outcome: on a small population
// with EBSN, and on the scheduling study's LAN under CSDP, whose predictor
// draws from its own RNG split.
func TestRunDeterminism(t *testing.T) {
	ebsn := smallConfig(8)
	ebsn.EBSN = true
	csdp := LAN(3, CSDP, 800*time.Millisecond)
	csdp.TransferSize = 128 * units.KB
	for name, cfg := range map[string]Config{"ebsn": ebsn, "csdp": csdp} {
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if !reflect.DeepEqual(a.Flows, b.Flows) || a.Events != b.Events ||
			a.RadioAttempts != b.RadioAttempts ||
			math.Float64bits(a.AggregateKbps) != math.Float64bits(b.AggregateKbps) {
			t.Fatalf("%s: same seed diverged:\n%+v\n%+v", name, a, b)
		}
		cfg.Seed = 2
		c, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if reflect.DeepEqual(a.Flows, c.Flows) {
			t.Fatalf("%s: different seeds produced identical per-flow results", name)
		}
	}
}

// TestMultiBaseStation exercises the sharded layout: flows land on
// f mod B, each base station schedules independently.
func TestMultiBaseStation(t *testing.T) {
	cfg := smallConfig(6)
	cfg.BaseStations = 3
	cfg.SharedChannel = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("completed %d/6 flows", res.CompletedFlows)
	}
	if res.Arena.LiveAtEnd != 0 {
		t.Errorf("arena leaked %d slots", res.Arena.LiveAtEnd)
	}
}

// TestStaggeredAdmission pins the AdmitBatch/AdmitEvery path: later
// batches cannot start before their admission instant.
func TestStaggeredAdmission(t *testing.T) {
	cfg := smallConfig(8)
	cfg.AdmitBatch = 2
	cfg.AdmitEvery = 50 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("completed %d/8 flows", res.CompletedFlows)
	}
	// Flows 0..1 started at t=0; flow 6 started at t=150ms. A staggered
	// flow's elapsed time is measured from run start, so the late flows
	// must take at least their admission delay.
	if res.Flows[7].Elapsed < 150*time.Millisecond {
		t.Errorf("flow 7 finished in %v, before its admission instant", res.Flows[7].Elapsed)
	}
}

// TestOracleSampling runs with conformance checkers attached to a subset
// of flows; a healthy run must not trip them.
func TestOracleSampling(t *testing.T) {
	cfg := smallConfig(8)
	cfg.OracleSample = 4
	cfg.EBSN = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("oracle-sampled run failed: %v", err)
	}
	if !res.Completed {
		t.Fatalf("completed %d/8 flows", res.CompletedFlows)
	}
}

// TestOracleSamplingDoesNotPerturb pins that attaching the sampler
// changes no simulation outcome: observation must be pure.
func TestOracleSamplingDoesNotPerturb(t *testing.T) {
	cfg := smallConfig(6)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.OracleSample = 6
	sampled, err := Run(cfg)
	if err != nil {
		t.Fatalf("sampled Run: %v", err)
	}
	if !reflect.DeepEqual(plain.Flows, sampled.Flows) || plain.Events != sampled.Events {
		t.Fatal("oracle sampling perturbed the simulation")
	}
}

func TestValidate(t *testing.T) {
	base := smallConfig(4)
	for name, mutate := range map[string]func(*Config){
		"no flows":        func(c *Config) { c.Flows = 0 },
		"bad policy":      func(c *Config) { c.Policy = 0 },
		"tiny packet":     func(c *Config) { c.PacketSize = 40 },
		"no transfer":     func(c *Config) { c.TransferSize = 0 },
		"window too low":  func(c *Config) { c.Window = 100 },
		"no rate":         func(c *Config) { c.WiredRate = 0 },
		"accuracy range":  func(c *Config) { c.PredictorAccuracy = 1.5 },
		"bs over flows":   func(c *Config) { c.BaseStations = 9 },
		"chaos p range":   func(c *Config) { c.Chaos.DropP = 2 },
		"channel invalid": func(c *Config) { c.Channel = errmodel.Config{} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestHorizonCapsRun pins the incomplete-run path: an impossible horizon
// leaves flows unfinished with Elapsed equal to the clock at exit.
func TestHorizonCapsRun(t *testing.T) {
	cfg := smallConfig(4)
	cfg.TransferSize = 64 * units.MB
	cfg.Horizon = 100 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed {
		t.Fatal("64 MB x 4 flows cannot finish in 100 ms of 2 Mbps radio")
	}
	if res.Arena.LiveAtEnd != 0 {
		t.Errorf("arena leaked %d slots on the horizon path", res.Arena.LiveAtEnd)
	}
}

// TestRunContextCancel pins cooperative cancellation: an already-ended
// context halts the run with an error unwrapping to context.Canceled.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig(4)
	_, err := RunContext(ctx, cfg, sim.Budget{})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestRunContextBudget pins budget enforcement: a tiny event ceiling
// halts the run with a *sim.BudgetError even mid-admission-wave (the
// pump chunks its same-instant storms so the kernel sees progress).
func TestRunContextBudget(t *testing.T) {
	cfg := smallConfig(8)
	_, err := RunContext(context.Background(), cfg, sim.Budget{MaxEvents: 3})
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want a *sim.BudgetError", err)
	}
	if be.Kind != sim.BudgetEvents {
		t.Fatalf("budget kind %q, want %q", be.Kind, sim.BudgetEvents)
	}
}

func TestPresetScales(t *testing.T) {
	for _, n := range []int{1000, 10000, 50000} {
		cfg := Preset(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Preset(%d) invalid: %v", n, err)
		}
		if want := (n + 9999) / 10000; cfg.BaseStations != want {
			t.Errorf("Preset(%d): %d base stations, want %d", n, cfg.BaseStations, want)
		}
	}
}

// TestPresetSmokeRun completes a small preset end to end: the staggered
// admission, shared channels, and EBSN paths all execute.
func TestPresetSmokeRun(t *testing.T) {
	cfg := Preset(200)
	cfg.Horizon = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("completed %d/200 flows", res.CompletedFlows)
	}
	if res.Arena.LiveAtEnd != 0 {
		t.Errorf("arena leaked %d slots", res.Arena.LiveAtEnd)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{FIFO: "fifo", RoundRobin: "roundrobin", CSDP: "csdp"} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	if !strings.Contains(Policy(9).String(), "9") {
		t.Error("unknown policy string should carry the value")
	}
}
