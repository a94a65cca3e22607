package bs

import (
	"testing"
	"time"

	"wtcp/internal/packet"
)

// TestCrashDropsARQState: crashing a local-recovery station mid-stream
// loses the radio queue and the ARQ window; the loss is reported to the
// caller and counted.
func TestCrashDropsARQState(t *testing.T) {
	b := newBench(t, Config{Scheme: LocalRecovery, MTU: 128}, nil)
	b.ackBack = false // no link acks, so ARQ state accumulates
	for i := 0; i < 3; i++ {
		b.bs.FromWired(b.dataPacket(int64(i) * 536))
	}
	// Let a little serialization happen, then crash with state in flight.
	if err := b.s.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	lost := b.bs.Crash()
	if lost == 0 {
		t.Error("crash with in-flight ARQ state reports nothing lost")
	}
	if !b.bs.Down() {
		t.Error("station not down after crash")
	}
	st := b.bs.Stats()
	if st.Crashes != 1 || st.CrashLostPackets != uint64(lost) {
		t.Errorf("stats = crashes %d, lost %d; want 1, %d", st.Crashes, st.CrashLostPackets, lost)
	}
}

// TestCrashIdempotent: a second crash while down is a no-op.
func TestCrashIdempotent(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic}, nil)
	b.bs.Crash()
	if lost := b.bs.Crash(); lost != 0 {
		t.Errorf("second crash reported %d lost packets", lost)
	}
	if b.bs.Stats().Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", b.bs.Stats().Crashes)
	}
}

// TestDownedStationDiscardsBothDirections: while down, traffic from both
// the wired and the wireless side vanishes (and is counted).
func TestDownedStationDiscardsBothDirections(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic}, nil)
	b.bs.Crash()
	b.bs.FromWired(b.dataPacket(0))
	b.bs.FromWireless(&packet.Packet{ID: b.ids.Next(), Kind: packet.Ack, AckNo: 536})
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) != 0 || len(b.toFH) != 0 {
		t.Errorf("downed station forwarded traffic: mh=%d fh=%d", len(b.mhGot), len(b.toFH))
	}
	if got := b.bs.Stats().CrashDiscards; got != 2 {
		t.Errorf("CrashDiscards = %d, want 2", got)
	}
}

// TestRestartResumesForwarding: a reboot brings the station back with
// empty state; fresh traffic flows again.
func TestRestartResumesForwarding(t *testing.T) {
	b := newBench(t, Config{Scheme: Basic}, nil)
	b.bs.Crash()
	b.bs.Restart()
	if b.bs.Down() {
		t.Fatal("station still down after restart")
	}
	b.bs.FromWired(b.dataPacket(0))
	if err := b.s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.mhGot) == 0 {
		t.Error("no delivery after restart")
	}
	// Restarting a live station is a no-op.
	b.bs.Restart()
	if b.bs.Stats().Crashes != 1 {
		t.Error("restart changed the crash count")
	}
}
