package serve

import (
	"context"
	"errors"
)

// Admission control: a fixed number of run slots (requests actually
// executing on the engine) fronted by a bounded wait queue. A request
// that cannot even get a queue position is rejected immediately with
// 429 — the queue never grows with offered load, so a request storm
// costs attackers connections, not server memory, and every rejection
// carries a Retry-After derived from the live median run time. This is
// the PR-5 budget idea applied to the service layer: capacity is an
// explicit budget, exhausting it is a first-class, well-shaped answer.

// errBusy is returned when both the slots and the wait queue are full.
var errBusy = errors.New("serve: all run slots and queue positions busy")

type admission struct {
	slots chan struct{}
	queue chan struct{}
}

func newAdmission(slots, queueDepth int) *admission {
	return &admission{
		slots: make(chan struct{}, slots),
		queue: make(chan struct{}, queueDepth),
	}
}

// acquire claims a run slot, waiting in the bounded queue if none is
// free. It returns the release function, errBusy when the queue is
// also full, or ctx.Err() when the context ends while queued (drain,
// shutdown). bypassQueue admits journaled work being resumed at
// startup: it was already accepted in a previous life, so it waits for
// a slot without competing for — or being bounced by — a queue
// position.
func (a *admission) acquire(ctx context.Context, bypassQueue bool) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	default:
	}
	if !bypassQueue {
		select {
		case a.queue <- struct{}{}:
			defer func() { <-a.queue }()
		default:
			return nil, errBusy
		}
	}
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// tryAcquire claims a free run slot without waiting and without a
// queue position: a sweep borrows idle slots this way for its points.
// A slot released while a request waits in acquire is handed to that
// waiter by the channel itself (a receive from a full buffered channel
// moves a blocked sender's value in), so a borrower never overtakes the
// queue.
func (a *admission) tryAcquire() (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
		return a.release, true
	default:
		return nil, false
	}
}

func (a *admission) release() { <-a.slots }

// inFlight reports how many slots are held right now.
func (a *admission) inFlight() int { return len(a.slots) }

// queued reports how many requests are waiting for a slot.
func (a *admission) queued() int { return len(a.queue) }

// slotCount reports the slot capacity.
func (a *admission) slotCount() int { return cap(a.slots) }
