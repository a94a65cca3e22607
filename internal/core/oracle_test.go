package core

import (
	"errors"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/chaos"
	"wtcp/internal/oracle"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// The conformance oracle must stay silent on every legitimate run: a
// violation on an unmodified simulator is a checker bug (or a real
// protocol bug, which is worse). These tests sweep the paper's scenarios
// with the oracle armed.

func TestOracleCleanAcrossSchemes(t *testing.T) {
	schemes := []bs.Scheme{bs.Basic, bs.LocalRecovery, bs.EBSN, bs.SourceQuench, bs.Snoop}
	for _, scheme := range schemes {
		for _, seed := range []int64{1, 5} {
			cfg := WAN(scheme, 576, 2*time.Second)
			cfg.TransferSize = 30 * units.KB
			cfg.Seed = seed
			cfg.Oracle = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v seed %d: %v", scheme, seed, err)
			}
			if !res.Completed {
				t.Errorf("%v seed %d: transfer did not complete", scheme, seed)
			}
			if res.Trace != nil {
				t.Errorf("%v seed %d: oracle-only run retained a trace", scheme, seed)
			}
		}
	}
}

func TestOracleCleanOnLAN(t *testing.T) {
	for _, scheme := range []bs.Scheme{bs.LocalRecovery, bs.EBSN} {
		cfg := LAN(scheme, 800*time.Millisecond)
		cfg.TransferSize = units.MB
		cfg.Oracle = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !res.Completed {
			t.Errorf("%v: transfer did not complete", scheme)
		}
	}
}

func TestOracleCleanWithAblations(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"reno", func(c *Config) { c.Variant = tcp.Reno }},
		{"newreno", func(c *Config) { c.Variant = tcp.NewReno }},
		{"delayed-acks", func(c *Config) { c.DelayedAcks = true }},
		{"ecn", func(c *Config) { c.ECN = true }},
		{"sack", func(c *Config) { c.SACK = true }},
		{"cross-traffic", func(c *Config) {
			c.CrossTraffic = CrossTraffic{Rate: 20 * units.Kbps}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WAN(bs.EBSN, 576, 2*time.Second)
			cfg.TransferSize = 30 * units.KB
			cfg.Oracle = true
			tc.mod(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Completed {
				t.Error("transfer did not complete")
			}
		})
	}
}

func TestOracleCleanWithCollectTrace(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Oracle = true
	cfg.CollectTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("CollectTrace run lost its trace")
	}
	if res.Trace.Count(1) == 0 { // trace.Send
		t.Error("trace recorded no sends")
	}
}

func TestOracleCleanOnWorkloads(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.Oracle = true
	web, err := RunWeb(cfg, WebWorkload{Pages: 4, PageSize: 4 * units.KB, ThinkTime: time.Second})
	if err != nil {
		t.Fatalf("web: %v", err)
	}
	if !web.Completed {
		t.Error("web workload did not complete")
	}
}

// TestOracleOnSplitConnection checks that split-connection runs carry a
// conformance checker on each half: both the wired and the wireless TCP
// must be oracle-clean under the run's variant profile.
func TestOracleOnSplitConnection(t *testing.T) {
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		cfg := WAN(bs.SplitConnection, 576, 2*time.Second)
		cfg.Oracle = true
		cfg.Variant = v
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: oracle tripped on split run: %v", v, err)
		}
		if !res.Completed {
			t.Fatalf("%v: split run did not complete", v)
		}
	}
}

// TestChaosNotifyDuplicationTripsOracle injects the EBSN-duplication
// fault and requires the conformance layer to catch it: the source then
// resets its RTO more often than the base station sent notifications,
// which breaks the ebsn/reset-without-notification rule. This is the
// fault-to-oracle coupling the chaos subsystem exists to exercise.
func TestChaosNotifyDuplicationTripsOracle(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 4*time.Second)
	cfg.TransferSize = 50 * units.KB
	cfg.Oracle = true
	cfg.Chaos = &chaos.Config{Notify: chaos.NotifyFaults{DupProb: 1}}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("duplicated EBSNs must trip the oracle")
	}
	var v *oracle.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v does not unwrap to a *oracle.Violation", err)
	}
	if v.Rule != "ebsn/reset-without-notification" {
		t.Errorf("rule = %q, want ebsn/reset-without-notification", v.Rule)
	}
	if v.Index < 0 {
		t.Errorf("violation index = %d", v.Index)
	}
}

// TestOracleHaltsAtTheViolatingEvent pins that the oracle judges each
// event as it is emitted, deferring nothing: under the duplicated-EBSN
// plan above the run halts at the very event that broke a rule — the
// failure's clock reading is the violating event's timestamp — and the
// error reads exactly as it always has.
func TestOracleHaltsAtTheViolatingEvent(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 4*time.Second)
	cfg.TransferSize = 50 * units.KB
	cfg.Oracle = true
	cfg.Chaos = &chaos.Config{Notify: chaos.NotifyFaults{DupProb: 1}}
	_, err := Run(cfg)
	var ce *sim.CheckError
	var v *oracle.Violation
	if !errors.As(err, &ce) || !errors.As(err, &v) {
		t.Fatalf("error %v is not an oracle violation halting the run", err)
	}
	if ce.At != v.Event.At {
		t.Errorf("run halted at %v, the violating event is at %v", ce.At, v.Event.At)
	}
	const want = `sim: invariant "oracle" violated at 5.271s: oracle: rule ebsn/reset-without-notification violated at event 231 (5.271s ebsn): 3 timer resets but only 2 EBSNs were sent by the base station`
	if err.Error() != want {
		t.Errorf("error text\n%s\nwant\n%s", err, want)
	}
}

// TestOracleCleanUnderBenignChaos checks the other side of the coupling:
// faults that only perturb the network (loss storms, blackouts, link
// corruption) must NOT trip the protocol oracles — the protocol is
// supposed to survive them, and the checker must not mistake recovery
// for misbehaviour.
func TestOracleCleanUnderBenignChaos(t *testing.T) {
	cfg := WAN(bs.EBSN, 576, 2*time.Second)
	cfg.TransferSize = 30 * units.KB
	cfg.Oracle = true
	cfg.Chaos = &chaos.Config{
		Blackouts: []chaos.Blackout{{Link: chaos.WirelessDown, At: 5 * time.Second, Length: 2 * time.Second}},
		Storms:    []chaos.Storm{{Link: chaos.WirelessUp, At: 20 * time.Second, Length: 2 * time.Second, LossProb: 0.5}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("benign chaos tripped the oracle: %v", err)
	}
	if res.Aborted {
		t.Logf("run aborted by watchdog (acceptable under chaos): %s", res.AbortReason)
	}
}
