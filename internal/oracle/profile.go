package oracle

import (
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
)

// profile is one sender variant's congestion-control rule set — the
// pluggable half of the conformance oracle. The structural rules that
// hold for every variant (ACK classification, sequence ordering, timer
// discipline, Karn's backoff rules, ARQ/EBSN/Snoop semantics) live in
// Checker; a profile contributes only the rules that differ between
// variants, each under its own rule namespace ("tahoe/...", "reno/...",
// "newreno/...", "sack/...").
//
// Every method receives the checker (for shared helpers and the shadow
// recovery state), the event under observation e, and the previous
// sender event p (only valid when c.haveLast) — both by pointer into
// storage the caller owns, read-only.
type profile interface {
	// prefix is the rule namespace, equal to the variant's wire name.
	prefix() string
	// newAck checks the congestion response to a window-advancing ACK.
	newAck(c *Checker, e, p *trace.Event) *Violation
	// dupAck checks a duplicate ACK that did not trigger fast
	// retransmit (below threshold, or inside fast recovery).
	dupAck(c *Checker, e, p *trace.Event) *Violation
	// fastRetx checks the third-duplicate-ACK response.
	fastRetx(c *Checker, e, p *trace.Event) *Violation
}

// profileFor resolves the conformance profile for a sender variant:
// Tahoe gets the collapse-and-slow-start rules, the Reno family (Reno,
// NewReno, SACK) the fast-recovery rules with per-variant partial-ACK
// handling.
func profileFor(v tcp.Variant) profile {
	if v.FastRecovery() {
		return newRenoProfile(v)
	}
	return tahoeProfile{}
}

// checkGrowth validates one window-growth step outside any recovery
// episode: slow start below ssthresh, else congestion avoidance, capped
// at the advertised window plus one segment. Shared by every profile.
func (c *Checker) checkGrowth(rule string, e, p *trace.Event) *Violation {
	mss := float64(c.cfg.MSS)
	capTo := func(x float64) float64 {
		if cap := float64(c.cfg.Window) + mss; x > cap {
			return cap
		}
		return x
	}
	ss := capTo(float64(p.Cwnd) + mss)
	ca := capTo(float64(p.Cwnd) + mss*mss/float64(p.Cwnd))
	switch {
	case p.Cwnd < p.Ssthresh:
		if !within(float64(e.Cwnd), ss, c.cfg.ByteTol) {
			return c.fail(rule,
				"slow start growth from cwnd=%d gives %d, want %.0f", p.Cwnd, e.Cwnd, ss)
		}
	case p.Cwnd == p.Ssthresh:
		// Boundary: the snapshot truncates the sender's fractional
		// ssthresh, so cwnd==ssthresh here is consistent with either
		// phase. Accept both growth laws.
		if !within(float64(e.Cwnd), ss, c.cfg.ByteTol) && !within(float64(e.Cwnd), ca, c.cfg.ByteTol) {
			return c.fail(rule,
				"growth at the slow-start boundary from cwnd=%d gives %d, want %.0f or %.0f",
				p.Cwnd, e.Cwnd, ca, ss)
		}
	default:
		if !within(float64(e.Cwnd), ca, c.cfg.ByteTol) {
			return c.fail(rule,
				"congestion avoidance growth from cwnd=%d gives %d, want %.0f", p.Cwnd, e.Cwnd, ca)
		}
	}
	return nil
}

// tahoeProfile is the paper's TCP: any loss collapses the window to one
// segment and slow start resumes from snd_una (go-back-N).
type tahoeProfile struct{}

func (tahoeProfile) prefix() string { return "tahoe" }

func (tahoeProfile) newAck(c *Checker, e, p *trace.Event) *Violation {
	if v := c.checkGrowth("tahoe/cwnd-growth", e, p); v != nil {
		return v
	}
	if e.Ssthresh != p.Ssthresh {
		return c.fail("tahoe/cwnd-growth",
			"ssthresh moved %d -> %d on a new ACK", p.Ssthresh, e.Ssthresh)
	}
	return nil
}

func (tahoeProfile) dupAck(c *Checker, e, p *trace.Event) *Violation {
	if e.DupAcks >= tcp.DupAckThreshold {
		return c.fail("tahoe/missed-fast-retransmit",
			"duplicate-ACK run reached %d without a fast retransmit", e.DupAcks)
	}
	if e.Cwnd != p.Cwnd || e.Ssthresh != p.Ssthresh {
		return c.fail("tahoe/dupack-no-growth",
			"below-threshold duplicate ACK moved cwnd/ssthresh %d/%d -> %d/%d",
			p.Cwnd, p.Ssthresh, e.Cwnd, e.Ssthresh)
	}
	return nil
}

// fastRetx validates the Tahoe fast-retransmit response on the third
// duplicate ACK: ssthresh halves, the window collapses and slow start
// resumes from snd_una — with no timer backoff (the ACK clock is still
// running; backing off here is the mistake Karn's rule is about).
func (tahoeProfile) fastRetx(c *Checker, e, p *trace.Event) *Violation {
	if !within(float64(e.Cwnd), float64(c.cfg.MSS), c.cfg.ByteTol) {
		return c.fail("tahoe/fastretx-collapse",
			"cwnd %d after fast retransmit, want one segment (%d)", e.Cwnd, int64(c.cfg.MSS))
	}
	if e.SndNxt != e.SndUna {
		return c.fail("tahoe/fastretx-collapse",
			"snd_nxt %d not rewound to snd_una %d", e.SndNxt, e.SndUna)
	}
	if e.DupAcks != 0 {
		return c.fail("tahoe/fastretx-collapse",
			"fast retransmit did not clear the duplicate-ACK run (%d)", e.DupAcks)
	}
	if !c.deadlineIs(e, e.At+e.RTO) {
		return c.fail("tahoe/fastretx-timer",
			"timer deadline %v after fast retransmit, want %v (now+RTO)", e.Deadline, e.At+e.RTO)
	}
	if !c.haveLast {
		return nil
	}
	if v := c.checkHalved("tahoe/fastretx-ssthresh", e, p); v != nil {
		return v
	}
	if e.Shift != p.Shift || !durWithin(e.RTO, p.RTO, c.cfg.TimeTol) {
		return c.fail("tahoe/fastretx-no-backoff",
			"fast retransmit changed the timeout (shift %d->%d, RTO %v->%v)",
			p.Shift, e.Shift, p.RTO, e.RTO)
	}
	return nil
}

// renoProfile covers the fast-recovery family: Reno, NewReno, and SACK.
// On the third duplicate ACK the sender retransmits the hole, halves
// ssthresh, and inflates cwnd to ssthresh + 3 segments; each further
// duplicate inflates by one segment; a new ACK deflates back. The
// variants differ on partial ACKs: plain Reno leaves recovery on any
// new ACK, NewReno and SACK retransmit the next hole and stay in.
type renoProfile struct {
	variant tcp.Variant
	// Every rule name the profile can emit, built once from the prefix
	// so that checking a conforming ACK concatenates nothing.
	cwndGrowth, recoveryExit, partialAckRetransmit, partialAckDeflate,
	recoveryInflation, missedFastRetransmit, dupackNoGrowth,
	fastretxInRecovery, fastretxEnter, fastretxTimer, fastretxRetransmit,
	fastretxInflate, fastretxNoRewind, fastretxSsthresh, fastretxNoBackoff string
}

func newRenoProfile(v tcp.Variant) *renoProfile {
	pre := v.String()
	return &renoProfile{
		variant:              v,
		cwndGrowth:           pre + "/cwnd-growth",
		recoveryExit:         pre + "/recovery-exit",
		partialAckRetransmit: pre + "/partial-ack-retransmit",
		partialAckDeflate:    pre + "/partial-ack-deflate",
		recoveryInflation:    pre + "/recovery-inflation",
		missedFastRetransmit: pre + "/missed-fast-retransmit",
		dupackNoGrowth:       pre + "/dupack-no-growth",
		fastretxInRecovery:   pre + "/fastretx-in-recovery",
		fastretxEnter:        pre + "/fastretx-enter",
		fastretxTimer:        pre + "/fastretx-timer",
		fastretxRetransmit:   pre + "/fastretx-retransmit",
		fastretxInflate:      pre + "/fastretx-inflate",
		fastretxNoRewind:     pre + "/fastretx-no-rewind",
		fastretxSsthresh:     pre + "/fastretx-ssthresh",
		fastretxNoBackoff:    pre + "/fastretx-no-backoff",
	}
}

func (r *renoProfile) prefix() string { return r.variant.String() }

func (r *renoProfile) newAck(c *Checker, e, p *trace.Event) *Violation {
	if !c.inRecovery {
		if v := c.checkGrowth(r.cwndGrowth, e, p); v != nil {
			return v
		}
		if e.Ssthresh != p.Ssthresh {
			return c.fail(r.cwndGrowth,
				"ssthresh moved %d -> %d on a new ACK", p.Ssthresh, e.Ssthresh)
		}
		return nil
	}
	switch {
	case e.Ack >= c.recoverSeq:
		// Full recovery: the ACK covers everything outstanding at loss
		// detection; the window deflates to ssthresh and recovery ends.
		c.inRecovery = false
		if !within(float64(e.Cwnd), float64(e.Ssthresh), c.cfg.ByteTol) {
			return c.fail(r.recoveryExit,
				"cwnd %d leaving recovery, want deflation to ssthresh %d", e.Cwnd, e.Ssthresh)
		}
		if e.Ssthresh != p.Ssthresh {
			return c.fail(r.recoveryExit,
				"ssthresh moved %d -> %d leaving recovery", p.Ssthresh, e.Ssthresh)
		}
	case !r.variant.PartialAckRetransmit():
		// Plain Reno leaves recovery on any new ACK, full or not.
		c.inRecovery = false
		if !within(float64(e.Cwnd), float64(e.Ssthresh), c.cfg.ByteTol) {
			return c.fail(r.recoveryExit,
				"cwnd %d leaving recovery on a partial ACK, want ssthresh %d", e.Cwnd, e.Ssthresh)
		}
		if e.Ssthresh != p.Ssthresh {
			return c.fail(r.recoveryExit,
				"ssthresh moved %d -> %d leaving recovery", p.Ssthresh, e.Ssthresh)
		}
	default:
		// NewReno/SACK partial ACK: recovery continues. The next hole —
		// the segment starting at the partial ACK — must be retransmitted
		// in the same transition (immediately before this snapshot), and
		// the window deflates by the amount acknowledged, floored at one
		// segment.
		if !c.haveLast2 {
			return nil
		}
		base := c.last2
		if p.Kind != trace.Retransmit || p.Seq != e.Ack {
			return c.fail(r.partialAckRetransmit,
				"partial ACK %d in recovery without a retransmission of the hole at %d", e.Ack, e.Ack)
		}
		exp := float64(base.Cwnd) - float64(e.Ack-base.SndUna)
		if mss := float64(c.cfg.MSS); exp < mss {
			exp = mss
		}
		if !within(float64(e.Cwnd), exp, c.cfg.ByteTol) {
			return c.fail(r.partialAckDeflate,
				"cwnd %d after partial ACK %d, want %.0f (deflated by the %d acked bytes)",
				e.Cwnd, e.Ack, exp, e.Ack-base.SndUna)
		}
		if e.Ssthresh != base.Ssthresh {
			return c.fail(r.partialAckDeflate,
				"ssthresh moved %d -> %d on a partial ACK", base.Ssthresh, e.Ssthresh)
		}
	}
	return nil
}

func (r *renoProfile) dupAck(c *Checker, e, p *trace.Event) *Violation {
	if c.inRecovery {
		// Window inflation: every duplicate during recovery signals one
		// more segment has left the network.
		if !within(float64(e.Cwnd), float64(p.Cwnd)+float64(c.cfg.MSS), c.cfg.ByteTol) {
			return c.fail(r.recoveryInflation,
				"duplicate ACK in recovery moved cwnd %d -> %d, want inflation by one segment", p.Cwnd, e.Cwnd)
		}
		if e.Ssthresh != p.Ssthresh {
			return c.fail(r.recoveryInflation,
				"ssthresh moved %d -> %d during recovery", p.Ssthresh, e.Ssthresh)
		}
		return nil
	}
	if e.DupAcks >= tcp.DupAckThreshold {
		return c.fail(r.missedFastRetransmit,
			"duplicate-ACK run reached %d without a fast retransmit", e.DupAcks)
	}
	if e.Cwnd != p.Cwnd || e.Ssthresh != p.Ssthresh {
		return c.fail(r.dupackNoGrowth,
			"below-threshold duplicate ACK moved cwnd/ssthresh %d/%d -> %d/%d",
			p.Cwnd, p.Ssthresh, e.Cwnd, e.Ssthresh)
	}
	return nil
}

// fastRetx validates recovery entry: the lost segment retransmitted in
// the same transition, ssthresh halved, cwnd inflated to ssthresh plus
// three segments, no go-back-N rewind, and no timer backoff.
func (r *renoProfile) fastRetx(c *Checker, e, p *trace.Event) *Violation {
	if c.inRecovery {
		return c.fail(r.fastretxInRecovery,
			"fast retransmit fired while already in fast recovery")
	}
	c.inRecovery = true
	c.recoverSeq = e.SndMax
	if e.DupAcks != tcp.DupAckThreshold {
		return c.fail(r.fastretxEnter,
			"fast retransmit with a duplicate-ACK run of %d, want %d", e.DupAcks, tcp.DupAckThreshold)
	}
	if !c.deadlineIs(e, e.At+e.RTO) {
		return c.fail(r.fastretxTimer,
			"timer deadline %v after fast retransmit, want %v (now+RTO)", e.Deadline, e.At+e.RTO)
	}
	if !c.haveLast {
		return nil
	}
	if p.Kind != trace.Retransmit || p.Seq != e.SndUna {
		return c.fail(r.fastretxRetransmit,
			"recovery entered without a retransmission of the hole at snd_una %d", e.SndUna)
	}
	inflated := float64(e.Ssthresh) + float64(tcp.DupAckThreshold)*float64(c.cfg.MSS)
	if !within(float64(e.Cwnd), inflated, c.cfg.ByteTol) {
		return c.fail(r.fastretxInflate,
			"cwnd %d entering recovery, want ssthresh %d + %d segments (%.0f)",
			e.Cwnd, e.Ssthresh, tcp.DupAckThreshold, inflated)
	}
	if e.SndNxt != p.SndNxt || e.SndUna != p.SndUna {
		return c.fail(r.fastretxNoRewind,
			"fast recovery moved sequence pointers (snd_nxt %d -> %d, snd_una %d -> %d)",
			p.SndNxt, e.SndNxt, p.SndUna, e.SndUna)
	}
	if v := c.checkHalved(r.fastretxSsthresh, e, p); v != nil {
		return v
	}
	if e.Shift != p.Shift || !durWithin(e.RTO, p.RTO, c.cfg.TimeTol) {
		return c.fail(r.fastretxNoBackoff,
			"fast retransmit changed the timeout (shift %d->%d, RTO %v->%v)",
			p.Shift, e.Shift, p.RTO, e.RTO)
	}
	return nil
}
