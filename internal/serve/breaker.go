package serve

import (
	"sync"
	"time"

	"wtcp/internal/core"
)

// Load shedding by failure taxonomy (core.Classify), applied at
// admission:
//
//   - Fail-fast classes (protocol-bug, panic) are deterministic: the
//     same request will fail the same way every time, so its
//     fingerprint is recorded permanently and replays answer 422
//     immediately, pointing at the captured repro bundle instead of
//     burning a slot to rediscover the bug.
//   - Resource exhaustion is a property of the scenario's shape, not
//     one request: when a request's class (preset/scheme for runs, the
//     sweep list for campaigns) exhausts its budget, the whole class
//     cools down — near-identical requests are rejected at admission
//     with 503 + Retry-After until the cooldown lapses, so a
//     pathological query pattern cannot saturate every slot with
//     doomed work.

// permFailure records a deterministically failing request.
type permFailure struct {
	Class  string
	Reason string
	// ReproDir points at the directory holding the failure's captured
	// repro bundle (wtcp repro replays it).
	ReproDir string
}

type breaker struct {
	mu       sync.Mutex
	cooldown time.Duration
	perm     map[string]permFailure
	until    map[string]time.Time
}

func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{cooldown: cooldown, perm: map[string]permFailure{}, until: map[string]time.Time{}}
}

// permanent reports a recorded deterministic failure for fp.
func (b *breaker) permanent(fp string) (permFailure, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pf, ok := b.perm[fp]
	return pf, ok
}

// recordPermanent trips the per-fingerprint breaker for a fail-fast
// class. Only protocol-bug and panic warrant it; other classes may
// succeed under different load or budgets.
func (b *breaker) recordPermanent(fp string, class core.FailureClass, reason, reproDir string) {
	if class != core.ClassProtocolBug && class != core.ClassPanic {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.perm[fp] = permFailure{Class: string(class), Reason: reason, ReproDir: reproDir}
}

// tripClass starts (or extends) the cooldown for a scenario class.
func (b *breaker) tripClass(class string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.until[class] = time.Now().Add(b.cooldown)
}

// rejected reports whether class is cooling down and for how much
// longer. Expired entries are pruned on the way.
func (b *breaker) rejected(class string) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	deadline, ok := b.until[class]
	if !ok {
		return 0, false
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		delete(b.until, class)
		return 0, false
	}
	return remaining, true
}

// counts reports how many permanent records and live cooldowns exist.
func (b *breaker) counts() (perm, cooling int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	for _, d := range b.until {
		if d.After(now) {
			cooling++
		}
	}
	return len(b.perm), cooling
}
