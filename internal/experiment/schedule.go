package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"wtcp/internal/core"
	"wtcp/internal/sim"
)

// This file is the one scheduler every in-process executor settles
// points through (DESIGN.md "Point lifecycle"). Its unit is one (point,
// replication seed); callers choose only where slots beyond their own
// goroutine come from.

// point is one keyed cell of a grid: what the scheduler settles.
type point struct {
	key string
	run replication
}

// unit is one replication of one point; seed is 1-based.
type unit struct{ point, seed int }

// pointState is one point's progress, changed under scheduler.mu.
type pointState struct {
	point
	ctx    context.Context // its units'; nil until its first unit starts
	cancel context.CancelFunc
	reps   []RepRecord // by seed-1
	errs   []error     // by seed-1
	left   int         // units not yet landed
	done   bool
	out    PointOutcome
	err    error
}

type scheduler struct {
	ctx    context.Context
	opt    Options
	budget sim.Budget // opt's, resolved: what the ledger settles a point under
	led    *Ledger
	borrow func() (release func(), ok bool)
	wg     sync.WaitGroup
	report sync.Mutex // keeps OnPoint calls from overlapping

	mu     sync.Mutex
	points []pointState
	next   int // the point whose units start next
	seed   int // the last seed of points[next] started; 0 before its first
	failed int // the lowest failed point; len(points) while none has
	noted  int // the points below this have had their quarantines noted
}

// settle settles points through l (nil records nothing) and returns
// their outcomes in index order; opt has its defaults.
//
// Units start in index order, point-major and seed-minor, on the
// caller's goroutine and on each slot borrow lends (nil lends none, so
// every unit runs in place); a slot goes back as soon as its unit
// lands. A point the ledger settles under opt's budget (lookupLocked)
// loads when its turn comes. When a point's last unit lands, its
// seed-ordered records get the breaker's verdict; a resource-exhausted
// quarantine met with ctx done was induced by the caller's deadline or
// drain, so it is ctx.Err() and is not recorded; otherwise the first
// record that settles the key for opt wins, and OnPoint (never two calls
// at once) reports a fresh finished point. Quarantines are noted to
// Health in index order.
//
// The error is the first point error in index order: a fail-fast class
// or ctx ended. It cancels the points after it; the ones before it run
// to the end and are recorded.
func (l *Ledger) settle(ctx context.Context, opt Options, points []point, borrow func() (func(), bool)) ([]PointOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &scheduler{ctx: ctx, opt: opt, budget: opt.runBudget(sim.Budget{}), led: l, borrow: borrow,
		points: make([]pointState, len(points)), failed: len(points)}
	for i, p := range points {
		s.points[i].point = p
	}
	for u, ok := s.take(); ok; u, ok = s.take() {
		s.lend()
		s.run(u)
	}
	s.wg.Wait()
	if s.failed < len(points) {
		return nil, s.points[s.failed].err
	}
	outs := make([]PointOutcome, len(points))
	for i := range s.points {
		outs[i] = s.points[i].out
	}
	return outs, nil
}

// take hands out the next unit before the first failed point, loading
// each point from the ledger when its turn comes.
func (s *scheduler) take() (unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next < s.failed {
		p := &s.points[s.next]
		if s.seed == 0 {
			if out, ok := s.led.lookup(s.budget, p.key); ok {
				p.out, p.done = out, true
				s.next++
				s.noteSettled()
				continue
			}
			n := s.opt.Replications
			p.ctx, p.cancel = context.WithCancel(s.ctx)
			p.reps, p.errs, p.left = make([]RepRecord, n), make([]error, n), n
		}
		s.seed++
		u := unit{s.next, s.seed}
		if s.seed == s.opt.Replications {
			s.next, s.seed = s.next+1, 0
		}
		return u, true
	}
	return unit{}, false
}

// lend starts a goroutine on each slot borrow lends while units remain;
// it hands its slot back after each unit and borrows again.
func (s *scheduler) lend() {
	for {
		u, release, ok := s.claim()
		if !ok {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for ; ok; u, release, ok = s.claim() {
				s.run(u)
				release()
			}
		}()
	}
}

// claim borrows a slot and takes a unit for it, or holds neither.
func (s *scheduler) claim() (unit, func(), bool) {
	if s.borrow == nil {
		return unit{}, nil, false
	}
	release, ok := s.borrow()
	if !ok {
		return unit{}, nil, false
	}
	u, ok := s.take()
	if !ok {
		release()
	}
	return u, release, ok
}

// run runs one unit and, if it was its point's last, settles the point.
func (s *scheduler) run(u unit) {
	p := &s.points[u.point]
	rec, err := runRep(p.ctx, s.opt, p.key, p.run, int64(u.seed))
	s.mu.Lock()
	p.reps[u.seed-1], p.errs[u.seed-1] = rec, err
	p.left--
	last := p.left == 0
	s.mu.Unlock()
	if !last {
		return
	}
	out, err := s.verdict(p)
	fresh := false
	if err == nil {
		if fresh, err = s.led.record(s.budget, out); err == nil && !fresh {
			out, _ = s.led.lookup(s.budget, p.key)
		}
	}
	p.cancel()
	if fresh && out.Quarantine == nil && s.opt.OnPoint != nil {
		s.report.Lock()
		s.opt.OnPoint(p.key)
		s.report.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.out, p.err, p.done = out, err, true
	if err != nil && u.point < s.failed {
		s.failed = u.point
		for j := u.point + 1; j < len(s.points); j++ {
			if cancel := s.points[j].cancel; cancel != nil {
				cancel()
			}
		}
	}
	s.noteSettled()
}

// verdict settles a point from its records. Each replication ran only
// its own seed, so the point is measured only when every one succeeded:
// a fail-fast class fails the sweep, any other classified failure
// quarantines the point, and an unclassified one (the point's context
// ended) fails the point, which reruns whole, keeping a resumed sweep
// identical. The quarantine carries the most severe failure — a
// resource exhaustion's, whose ceiling it must name — else the first in
// seed order.
func (s *scheduler) verdict(p *pointState) (PointOutcome, error) {
	if err := s.ctx.Err(); err != nil {
		return PointOutcome{}, err
	}
	if err := p.ctx.Err(); err != nil {
		return PointOutcome{}, err // an earlier point failed; its error is the answer
	}
	var breaker *repFailure
	var unclassified error
	for _, err := range p.errs {
		var rf *repFailure
		switch {
		case err == nil:
		case !errors.As(err, &rf):
			unclassified = cmp.Or(unclassified, err)
		case breaker == nil || severity(rf.class) > severity(breaker.class):
			breaker = rf
		}
	}
	exhausted := breaker != nil && breaker.class == core.ClassResourceExhausted
	switch {
	case breaker != nil && failFast(breaker.class):
		return PointOutcome{}, fmt.Errorf("experiment: point %q: %s: %w", p.key, breaker.class, breaker.err)
	case unclassified != nil:
		return PointOutcome{}, fmt.Errorf("experiment: point %q: %w", p.key, unclassified)
	case exhausted && s.ctx.Err() != nil:
		return PointOutcome{}, s.ctx.Err() // the caller's deadline or drain starved it
	case breaker != nil:
		q := &Quarantine{Key: p.key, Class: string(breaker.class), Attempts: breaker.attempts, Reason: breaker.err.Error()}
		var be *sim.BudgetError
		if exhausted && errors.As(breaker.err, &be) {
			q.Ceiling, q.Limit = be.Kind, be.Limit
		}
		return PointOutcome{Key: p.key, Quarantine: q}, nil
	}
	return PointOutcome{Key: p.key, Reps: p.reps}, nil
}

// severity ranks the classes verdict lets trip the breaker.
func severity(c core.FailureClass) int {
	switch {
	case failFast(c):
		return 2
	case c == core.ClassResourceExhausted:
		return 1
	}
	return 0
}

// noteSettled notes the quarantines of the points settled so far, up to
// the first failed point, in index order. Caller holds s.mu.
func (s *scheduler) noteSettled() {
	for ; s.noted < s.failed && s.points[s.noted].done; s.noted++ {
		if q := s.points[s.noted].out.Quarantine; q != nil {
			s.opt.Health.noteQuarantine(*q)
		}
	}
}

// slots is the fixed-width slot source: Workers-1 slots to lend beside
// the caller's own goroutine.
func (o Options) slots() func() (func(), bool) {
	sem := make(chan struct{}, max(o.Workers, 1)-1)
	return func() (func(), bool) {
		select {
		case sem <- struct{}{}:
			return func() { <-sem }, true
		default:
			return nil, false
		}
	}
}
