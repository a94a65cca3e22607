package bs

import (
	"fmt"
	"testing"
	"time"
)

// arqAuditor replays the hook stream against the ARQ contract: attempts
// per unit count 1, 2, 3, ... with no gaps; a unit that has been
// acknowledged is finished — any later attempt or ack-timeout for its ID
// is a recycled entry firing a stale timer; and a discarded packet's
// units must never produce another event (fresh re-admissions carry new
// unit IDs).
type arqAuditor struct {
	t        *testing.T
	attempts map[uint64]int    // live unit -> last attempt seen
	owner    map[uint64]uint64 // unit -> network packet
	done     map[uint64]bool   // units completed by a link ack
	dead     map[uint64]bool   // packets withdrawn by a discard
	events   int
}

func newARQAuditor(t *testing.T) *arqAuditor {
	return &arqAuditor{
		t:        t,
		attempts: map[uint64]int{},
		owner:    map[uint64]uint64{},
		done:     map[uint64]bool{},
		dead:     map[uint64]bool{},
	}
}

func (a *arqAuditor) hooks() Hooks {
	return Hooks{
		OnARQAttempt: func(unit, pkt uint64, attempt int) {
			a.events++
			if a.done[unit] {
				a.t.Fatalf("attempt %d on unit %d after its link ack: stale timer fire", attempt, unit)
			}
			if a.dead[pkt] {
				a.t.Fatalf("attempt %d on unit %d of discarded packet %d", attempt, unit, pkt)
			}
			if prev, ok := a.attempts[unit]; ok {
				if attempt != prev+1 {
					a.t.Fatalf("unit %d jumped from attempt %d to %d", unit, prev, attempt)
				}
			} else if attempt != 1 {
				a.t.Fatalf("unit %d entered tracking at attempt %d", unit, attempt)
			}
			a.attempts[unit] = attempt
			a.owner[unit] = pkt
		},
		OnARQFailure: func(unit, pkt uint64, attempt int) {
			a.events++
			if a.done[unit] {
				a.t.Fatalf("ack-timeout on unit %d after its link ack: stale timer fire", unit)
			}
			if a.dead[pkt] {
				a.t.Fatalf("ack-timeout on unit %d of discarded packet %d", unit, pkt)
			}
			if a.attempts[unit] != attempt {
				a.t.Fatalf("unit %d failed attempt %d but last transmission was attempt %d", unit, attempt, a.attempts[unit])
			}
		},
		OnARQAck: func(unit, pkt uint64) {
			a.events++
			if a.done[unit] {
				a.t.Fatalf("unit %d acknowledged twice", unit)
			}
			if _, ok := a.attempts[unit]; !ok {
				a.t.Fatalf("ack for unit %d that was never transmitted", unit)
			}
			a.done[unit] = true
		},
		OnARQDiscard: func(pkt uint64) {
			a.events++
			a.dead[pkt] = true
		},
	}
}

// pseudoBad is a deterministic hash of the transmission instant, giving a
// reproducible memoryless ~pct% loss process per seed without any shared
// RNG state.
func pseudoBad(seed int64, pct uint64) func(time.Duration) bool {
	return func(ts time.Duration) bool {
		x := uint64(ts)*0x9e3779b97f4a7c15 ^ uint64(seed)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return x%100 < pct
	}
}

// TestARQRecycledEntryNeverFiresStaleTimer hammers the pooled attempt-
// state records: a small ARQ window over a heavily lossy channel churns
// entries through transmit -> timeout -> backoff -> retransmit -> ack or
// discard -> pool, across enough packets that every entry is recycled
// many times. The auditor fails the run on the first event that could
// only come from a stale timer. Run under -race in the conformance CI
// job, this also proves the recycling path is free of data races.
func TestARQRecycledEntryNeverFiresStaleTimer(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ch := scriptChannel{bad: pseudoBad(seed, 35)}
			cfg := Config{
				Scheme: LocalRecovery,
				MTU:    128,
				ARQ: ARQConfig{
					RTmax:      3,
					Window:     2,
					BackoffMax: 50 * time.Millisecond,
				},
			}
			b := newBench(t, cfg, ch)
			audit := newARQAuditor(t)
			b.bs.SetHooks(audit.hooks())

			// Admit packets in staggered bursts so the window is always
			// churning: some packets complete, some are discarded mid-
			// flight, and their entries are immediately reused.
			for burst := 0; burst < 8; burst++ {
				at := time.Duration(burst) * 400 * time.Millisecond
				seq := int64(burst) * 4 * 536
				b.s.Schedule(at, func() {
					for i := int64(0); i < 4; i++ {
						b.bs.FromWired(b.dataPacket(seq + i*536))
					}
				})
			}
			if err := b.s.RunAll(); err != nil {
				t.Fatal(err)
			}
			if audit.events < 100 {
				t.Fatalf("only %d ARQ events; the scenario is not exercising recycling", audit.events)
			}
			// The churn must actually have completed and discarded work, or
			// the pool never recycled anything.
			if len(audit.done) == 0 {
				t.Error("no unit ever completed")
			}
			if b.bs.Stats().ARQDiscards == 0 && len(audit.done) < 20 {
				t.Errorf("too little churn: %d completions, %d discards",
					len(audit.done), b.bs.Stats().ARQDiscards)
			}
		})
	}
}
