package oracle

import (
	"testing"
	"time"

	"wtcp/internal/queue"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
)

const (
	mss  = 536
	win  = 4288 // eight segments
	rto0 = 3 * time.Second
	sec  = time.Second
)

func baseCfg() Config {
	return Config{Variant: tcp.Tahoe, MSS: mss, Window: win, RTmax: 3}
}

// slowStartPrefix is a conforming opening: first segment, its ACK (slow-
// start growth, timer stopped — nothing outstanding), then two more sends.
func slowStartPrefix() []trace.Event {
	return []trace.Event{
		{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
			Cwnd: mss, Ssthresh: win, RTO: rto0, Deadline: rto0},
		{At: sec, Kind: trace.AckIn, Ack: mss, AckClass: int(tcp.AckNew),
			SndUna: mss, SndNxt: mss, SndMax: mss,
			Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: -1},
		{At: sec, Kind: trace.Send, Seq: mss, Payload: mss,
			SndUna: mss, SndNxt: mss, SndMax: mss,
			Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: sec + rto0},
		{At: sec, Kind: trace.Send, Seq: 2 * mss, Payload: mss,
			SndUna: mss, SndNxt: 2 * mss, SndMax: 2 * mss,
			Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: sec + rto0},
	}
}

// timeoutSuffix continues slowStartPrefix with a conforming timeout at the
// 4s deadline: collapse, halve, rewind, backoff, restart — then the
// go-back-N retransmission.
func timeoutSuffix() []trace.Event {
	return []trace.Event{
		{At: 4 * sec, Kind: trace.Timeout, Seq: mss,
			SndUna: mss, SndNxt: mss, SndMax: 3 * mss,
			Cwnd: mss, Ssthresh: 2 * mss, RTO: 2 * rto0, Deadline: 10 * sec, Shift: 1},
		{At: 4 * sec, Kind: trace.Retransmit, Seq: mss, Payload: mss,
			SndUna: mss, SndNxt: mss, SndMax: 3 * mss,
			Cwnd: mss, Ssthresh: 2 * mss, RTO: 2 * rto0, Deadline: 10 * sec, Shift: 1},
	}
}

func wantViolation(t *testing.T, v *Violation, rule string, index int) {
	t.Helper()
	if v == nil {
		t.Fatalf("stream accepted, want %s at event %d", rule, index)
	}
	if v.Rule != rule || v.Index != index {
		t.Fatalf("violation = %s at event %d (%s), want %s at %d", v.Rule, v.Index, v.Detail, rule, index)
	}
}

func TestCleanSlowStartAndTimeout(t *testing.T) {
	events := append(slowStartPrefix(), timeoutSuffix()...)
	if v := Check(baseCfg(), events); v != nil {
		t.Fatalf("conforming stream rejected: %v", v)
	}
}

func TestAckOfUnsentData(t *testing.T) {
	events := slowStartPrefix()
	// The sender accepted (class New) an ACK beyond snd_max.
	events[1].Ack = 10 * mss
	events[1].SndUna = 10 * mss
	events[1].SndNxt = 10 * mss
	events[1].SndMax = mss
	v := Check(baseCfg(), events)
	wantViolation(t, v, "tcp/sequence-order", 1)

	// With consistent pointers the specific ack-of-unsent rule names it.
	events = slowStartPrefix()
	events[1].Ack = 2 * mss // beyond snd_max = mss
	events[1].SndUna = mss
	wantViolation(t, Check(baseCfg(), events), "tcp/ack-of-unsent", 1)
}

func TestInvalidAckMustNotMutate(t *testing.T) {
	events := slowStartPrefix()[:2]
	events[1] = trace.Event{At: sec, Kind: trace.AckIn, Ack: 5 * mss,
		AckClass: int(tcp.AckInvalid),
		SndUna:   0, SndNxt: mss, SndMax: mss,
		Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0}
	// cwnd grew on an invalid ACK: the sender failed to drop it.
	wantViolation(t, Check(baseCfg(), events), "tcp/ack-of-unsent", 1)
}

func TestTahoeCwndGrowthRules(t *testing.T) {
	// Slow start must add one MSS per new ACK.
	events := slowStartPrefix()
	events[1].Cwnd = 3 * mss // grew by two segments
	wantViolation(t, Check(baseCfg(), events), "tahoe/cwnd-growth", 1)

	// No growth at all is equally non-conforming.
	events = slowStartPrefix()
	events[1].Cwnd = mss
	wantViolation(t, Check(baseCfg(), events), "tahoe/cwnd-growth", 1)

	// Congestion avoidance: above ssthresh the increment is MSS^2/cwnd.
	ca := []trace.Event{
		{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
			Cwnd: 4 * mss, Ssthresh: 2 * mss, RTO: rto0, Deadline: rto0},
		{At: sec, Kind: trace.AckIn, Ack: mss, AckClass: int(tcp.AckNew),
			SndUna: mss, SndNxt: mss, SndMax: mss,
			Cwnd: 4*mss + mss/4, Ssthresh: 2 * mss, RTO: rto0, Deadline: -1},
	}
	if v := Check(baseCfg(), ca); v != nil {
		t.Fatalf("conforming CA growth rejected: %v", v)
	}
	ca[1].Cwnd = 5 * mss // slow-start jump while above ssthresh
	wantViolation(t, Check(baseCfg(), ca), "tahoe/cwnd-growth", 1)
}

func TestTimeoutRules(t *testing.T) {
	base := func() []trace.Event { return append(slowStartPrefix(), timeoutSuffix()...) }

	events := base()
	events[4].Cwnd = 2 * mss // no collapse
	wantViolation(t, Check(baseCfg(), events), "tcp/timeout-collapse", 4)

	events = base()
	events[4].Ssthresh = win // halving skipped
	wantViolation(t, Check(baseCfg(), events), "tcp/timeout-ssthresh", 4)

	events = base()
	events[4].SndNxt = 3 * mss
	events[4].Seq = mss
	wantViolation(t, Check(baseCfg(), events), "tcp/timeout-rewind", 4)

	events = base()
	events[4].Shift = 0
	events[4].RTO = rto0 // backoff skipped
	events[4].Deadline = 4*sec + rto0
	wantViolation(t, Check(baseCfg(), events), "tcp/rto-backoff", 4)

	events = base()
	events[4].Deadline = 20 * sec // re-armed with something other than RTO
	wantViolation(t, Check(baseCfg(), events), "tcp/timer-restart-on-timeout", 4)
}

func TestRTOBackoffCaps(t *testing.T) {
	cfg := baseCfg()
	// Previous RTO 48s, shift 1: doubling would give 96s but must clamp
	// to tcp.MaxRTO (64s).
	events := []trace.Event{
		{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
			Cwnd: mss, Ssthresh: win, RTO: 48 * sec, Deadline: 48 * sec, Shift: 1},
		{At: 48 * sec, Kind: trace.Timeout,
			SndUna: 0, SndNxt: 0, SndMax: mss,
			Cwnd: mss, Ssthresh: 2 * mss, RTO: tcp.MaxRTO, Deadline: 48*sec + tcp.MaxRTO, Shift: 2},
	}
	if v := Check(cfg, events); v != nil {
		t.Fatalf("clamped backoff rejected: %v", v)
	}
	events[1].RTO = 96 * sec // ignored the ceiling
	events[1].Deadline = 144 * sec
	wantViolation(t, Check(cfg, events), "tcp/rto-backoff", 1)
}

func TestKarnBackoffResetNeedsFreshByte(t *testing.T) {
	prefix := append(slowStartPrefix(), timeoutSuffix()...)
	// The ACK covers exactly the retransmitted range [mss, 2*mss) — no
	// fresh byte proves a round trip, so the shift may not reset.
	// The ACK drains everything outstanding (the go-back-N pass had only
	// resent one segment), so the timer stops.
	ack := trace.Event{At: 5 * sec, Kind: trace.AckIn, Ack: 2 * mss,
		AckClass: int(tcp.AckNew),
		SndUna:   2 * mss, SndNxt: 2 * mss, SndMax: 3 * mss,
		Cwnd: 2 * mss, Ssthresh: 2 * mss, RTO: 2 * rto0,
		Deadline: -1, Shift: 1}
	legit := append(append([]trace.Event{}, prefix...), ack)
	if v := Check(baseCfg(), legit); v != nil {
		t.Fatalf("Karn-conforming ACK rejected: %v", v)
	}

	bad := ack
	bad.Shift = 0
	bad.RTO = rto0
	events := append(append([]trace.Event{}, prefix...), bad)
	wantViolation(t, Check(baseCfg(), events), "tcp/karn-backoff-reset", len(prefix))

	// A shift *increase* on an ACK is never legal.
	up := ack
	up.Shift = 2
	up.RTO = 4 * rto0
	events = append(append([]trace.Event{}, prefix...), up)
	wantViolation(t, Check(baseCfg(), events), "tcp/karn-backoff-reset", len(prefix))
}

func TestMissedFastRetransmit(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
			Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0},
	}
	for i := 1; i <= 3; i++ {
		events = append(events, trace.Event{At: sec, Kind: trace.AckIn, Ack: 0,
			AckClass: int(tcp.AckDup), DupAcks: i,
			SndUna: 0, SndNxt: mss, SndMax: mss,
			Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0})
	}
	// The third duplicate ACK surfaced as a plain dupack instead of a
	// fast retransmit.
	wantViolation(t, Check(baseCfg(), events), "tahoe/missed-fast-retransmit", 3)
}

func TestFastRetransmitRules(t *testing.T) {
	prefix := []trace.Event{
		{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
			Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0},
		{At: sec, Kind: trace.AckIn, Ack: 0, AckClass: int(tcp.AckDup), DupAcks: 1,
			SndUna: 0, SndNxt: mss, SndMax: mss,
			Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0},
		{At: sec, Kind: trace.AckIn, Ack: 0, AckClass: int(tcp.AckDup), DupAcks: 2,
			SndUna: 0, SndNxt: mss, SndMax: mss,
			Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0},
	}
	fr := trace.Event{At: sec, Kind: trace.FastRetx, Seq: 0,
		SndUna: 0, SndNxt: 0, SndMax: mss,
		Cwnd: mss, Ssthresh: 2 * mss, RTO: rto0, Deadline: sec + rto0}
	clean := append(append([]trace.Event{}, prefix...), fr)
	if v := Check(baseCfg(), clean); v != nil {
		t.Fatalf("conforming fast retransmit rejected: %v", v)
	}

	noCollapse := fr
	noCollapse.Cwnd = 2 * mss
	events := append(append([]trace.Event{}, prefix...), noCollapse)
	wantViolation(t, Check(baseCfg(), events), "tahoe/fastretx-collapse", 3)

	backedOff := fr
	backedOff.Shift = 1
	backedOff.RTO = 2 * rto0
	backedOff.Deadline = sec + 2*rto0
	events = append(append([]trace.Event{}, prefix...), backedOff)
	wantViolation(t, Check(baseCfg(), events), "tahoe/fastretx-no-backoff", 3)
}

func TestEBSNRestartsNotExtends(t *testing.T) {
	prefix := slowStartPrefix()
	ebsn := trace.Event{At: 2 * sec, Kind: trace.EBSNReset,
		SndUna: mss, SndNxt: 3 * mss, SndMax: 3 * mss,
		Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: 2*sec + rto0}
	clean := append(append([]trace.Event{}, prefix...), ebsn)
	if v := Check(baseCfg(), clean); v != nil {
		t.Fatalf("conforming EBSN reset rejected: %v", v)
	}

	// Deadline merely kept from the old timer: not a restart.
	stale := ebsn
	stale.Deadline = sec + rto0
	events := append(append([]trace.Event{}, prefix...), stale)
	wantViolation(t, Check(baseCfg(), events), "ebsn/timer-restart-not-extend", len(prefix))

	// Backing off on an EBSN is wrong: it must re-arm with the current RTO.
	backoff := ebsn
	backoff.Shift = 1
	backoff.RTO = 2 * rto0
	backoff.Deadline = 2*sec + 2*rto0
	events = append(append([]trace.Event{}, prefix...), backoff)
	wantViolation(t, Check(baseCfg(), events), "ebsn/timer-restart-not-extend", len(prefix))

	// EBSN is congestion-neutral: a window change is a violation.
	quenched := ebsn
	quenched.Cwnd = mss
	events = append(append([]trace.Event{}, prefix...), quenched)
	wantViolation(t, Check(baseCfg(), events), "ebsn/no-congestion-response", len(prefix))
}

// TestEBSNRestartWithoutData: with nothing outstanding an EBSN leaves the
// retransmission timer as the previous sender event left it; re-arming
// an idle timer is a violation.
func TestEBSNRestartWithoutData(t *testing.T) {
	idle := slowStartPrefix()[:2] // the first segment sent and acknowledged: timer stopped
	ebsn := trace.Event{At: sec + sec/2, Kind: trace.EBSNReset,
		SndUna: mss, SndNxt: mss, SndMax: mss,
		Cwnd: 2 * mss, Ssthresh: win, RTO: rto0, Deadline: -1}
	if v := Check(baseCfg(), append(append([]trace.Event{}, idle...), ebsn)); v != nil {
		t.Fatalf("EBSN leaving an idle timer idle rejected: %v", v)
	}

	rearmed := ebsn
	rearmed.Deadline = ebsn.At + rto0
	wantViolation(t, Check(baseCfg(), append(append([]trace.Event{}, idle...), rearmed)), "ebsn/restart-without-data", len(idle))
}

func TestEBSNNotificationCounting(t *testing.T) {
	cfg := baseCfg()
	cfg.TrackNotifications = true

	// A timer reset with no EBSN on the wire (e.g. a duplicated or forged
	// notification) is flagged immediately.
	events := []trace.Event{{At: sec, Kind: trace.EBSNReset}}
	wantViolation(t, Check(cfg, events), "ebsn/reset-without-notification", 0)

	// An EBSN sent without a preceding link-level failure is flagged.
	events = []trace.Event{{At: sec, Kind: trace.EBSNSent}}
	wantViolation(t, Check(cfg, events), "ebsn/sent-without-failure", 0)

	// failure -> sent -> reset is the conforming order.
	events = []trace.Event{
		{At: sec, Kind: trace.ARQFailure, Unit: 1, Pkt: 1, Attempt: 1},
		{At: sec, Kind: trace.EBSNSent},
		{At: sec, Kind: trace.EBSNReset},
	}
	if v := Check(cfg, events); v != nil {
		t.Fatalf("conforming notification order rejected: %v", v)
	}
}

func TestQuenchRules(t *testing.T) {
	prefix := []trace.Event{{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
		Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0}}
	q := trace.Event{At: sec, Kind: trace.QuenchIn,
		SndUna: 0, SndNxt: mss, SndMax: mss,
		Cwnd: mss, Ssthresh: win, RTO: rto0, Deadline: rto0}
	clean := append(append([]trace.Event{}, prefix...), q)
	if v := Check(baseCfg(), clean); v != nil {
		t.Fatalf("conforming quench rejected: %v", v)
	}
	bad := q
	bad.Cwnd = 4 * mss // ignored the quench
	events := append(append([]trace.Event{}, prefix...), bad)
	wantViolation(t, Check(baseCfg(), events), "quench/collapse", 1)

	touchedTimer := q
	touchedTimer.Shift = 1
	touchedTimer.RTO = 2 * rto0
	events = append(append([]trace.Event{}, prefix...), touchedTimer)
	wantViolation(t, Check(baseCfg(), events), "quench/collapse", 1)
}

func TestECNRules(t *testing.T) {
	prefix := []trace.Event{{At: 0, Kind: trace.Send, Seq: 0, Payload: mss,
		Cwnd: 4 * mss, Ssthresh: win, RTO: rto0, Deadline: rto0}}
	ecn := trace.Event{At: sec, Kind: trace.ECNEcho,
		SndUna: 0, SndNxt: mss, SndMax: mss,
		Cwnd: 2 * mss, Ssthresh: 2 * mss, RTO: rto0, Deadline: rto0}
	clean := append(append([]trace.Event{}, prefix...), ecn)
	if v := Check(baseCfg(), clean); v != nil {
		t.Fatalf("conforming ECN response rejected: %v", v)
	}
	bad := ecn
	bad.Cwnd = 4 * mss
	events := append(append([]trace.Event{}, prefix...), bad)
	wantViolation(t, Check(baseCfg(), events), "ecn/halve", 1)
}

func TestARQAttemptRules(t *testing.T) {
	cfg := baseCfg() // RTmax = 3

	clean := []trace.Event{
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 1},
		{Kind: trace.ARQFailure, Unit: 1, Pkt: 1, Attempt: 1},
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 2},
		{Kind: trace.ARQAck, Unit: 1, Pkt: 1},
		// After completion the unit ID may restart at attempt 1 (the same
		// network packet re-admitted, e.g. a duplicated wired delivery).
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 1},
	}
	if v := Check(cfg, clean); v != nil {
		t.Fatalf("conforming ARQ sequence rejected: %v", v)
	}

	over := []trace.Event{{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 5}}
	wantViolation(t, Check(cfg, over), "arq/attempt-cap", 0)

	jump := []trace.Event{
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 1},
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 1, Attempt: 3},
	}
	wantViolation(t, Check(cfg, jump), "arq/attempt-order", 1)

	// A unit appearing mid-count is the stale-recycled-timer signature.
	stale := []trace.Event{{Kind: trace.ARQAttempt, Unit: 9, Pkt: 9, Attempt: 2}}
	wantViolation(t, Check(cfg, stale), "arq/attempt-order", 0)
}

func TestARQDiscardRules(t *testing.T) {
	cfg := baseCfg()
	events := []trace.Event{
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 7, Attempt: 1},
		{Kind: trace.ARQDiscard, Pkt: 7},
		// Retrying a withdrawn packet's unit is a violation...
		{Kind: trace.ARQAttempt, Unit: 1, Pkt: 7, Attempt: 2},
	}
	wantViolation(t, Check(cfg, events), "arq/attempt-after-discard", 2)

	// ...but a fresh first attempt re-admits it (source retransmitted).
	events[2] = trace.Event{Kind: trace.ARQAttempt, Unit: 8, Pkt: 7, Attempt: 1}
	if v := Check(cfg, events); v != nil {
		t.Fatalf("re-admission after discard rejected: %v", v)
	}
}

func TestMobileReorderRule(t *testing.T) {
	cfg := baseCfg()
	clean := []trace.Event{
		{Kind: trace.MHDeliver, Unit: 1},
		{Kind: trace.MHDeliver, Unit: 2},
		{Kind: trace.MHDeliver, Unit: 4}, // gap flush after a discard: legal
	}
	if v := Check(cfg, clean); v != nil {
		t.Fatalf("in-order delivery rejected: %v", v)
	}
	dup := append(append([]trace.Event{}, clean...),
		trace.Event{Kind: trace.MHDeliver, Unit: 4})
	wantViolation(t, Check(cfg, dup), "arq/reorder", 3)
	back := append(append([]trace.Event{}, clean...),
		trace.Event{Kind: trace.MHDeliver, Unit: 3})
	wantViolation(t, Check(cfg, back), "arq/reorder", 3)
}

func TestCheckerLatchesFirstViolation(t *testing.T) {
	c := New(baseCfg())
	v0 := c.Observe(0, &trace.Event{Kind: trace.MHDeliver, Unit: 2})
	if v0 != nil {
		t.Fatalf("first delivery flagged: %v", v0)
	}
	err := c.Observe(1, &trace.Event{Kind: trace.MHDeliver, Unit: 2})
	v1, _ := err.(*Violation)
	if v1 == nil || c.first != v1 {
		t.Fatalf("violation not latched: %v, first=%v", err, c.first)
	}
	// A later, independent violation is still reported but First stays.
	v2 := c.Observe(2, &trace.Event{Kind: trace.MHDeliver, Unit: 1})
	if v2 == nil || c.first != v1 {
		t.Errorf("latch moved: %v", c.first)
	}
	if v1.Error() == "" || v1.Index != 1 {
		t.Errorf("violation error text/index: %v", v1)
	}
}

// TestSnoopShadowRules pins every snoop rule by name, including which one
// a suppressed stale ACK is filed under: the stale-ACK rule comes first,
// because the shadow may already have pruned the segment below snd_una.
func TestSnoopShadowRules(t *testing.T) {
	cfg := baseCfg()
	cfg.SnoopMaxRetx = 2
	// After the prefix snd_una is one segment, snd_max three; the agent
	// has cached the two segments in flight and retransmitted the first.
	prefix := append(slowStartPrefix(),
		trace.Event{At: sec, Kind: trace.SnoopAdmit, Seq: mss},
		trace.Event{At: sec, Kind: trace.SnoopAdmit, Seq: 2 * mss},
		trace.Event{At: 2 * sec, Kind: trace.SnoopRetx, Seq: mss, Attempt: 1},
		trace.Event{At: 2 * sec, Kind: trace.SnoopSuppress, Ack: mss},
	)
	if v := Check(cfg, prefix); v != nil {
		t.Fatalf("conforming snoop stream rejected: %v", v)
	}
	at := len(prefix)
	for _, tc := range []struct {
		name string
		next []trace.Event
		rule string
	}{
		{"retransmit uncached", []trace.Event{{Kind: trace.SnoopRetx, Seq: 5 * mss, Attempt: 1}}, "snoop/retx-uncached"},
		{"attempt skipped", []trace.Event{{Kind: trace.SnoopRetx, Seq: 2 * mss, Attempt: 2}}, "snoop/retx-order"},
		{"past the cap", []trace.Event{
			{Kind: trace.SnoopRetx, Seq: mss, Attempt: 2},
			{Kind: trace.SnoopRetx, Seq: mss, Attempt: 3}}, "snoop/retx-cap"},
		{"suppress uncached", []trace.Event{{Kind: trace.SnoopSuppress, Ack: 3 * mss}}, "snoop/suppress-needs-cache"},
		{"suppress stale ack", []trace.Event{{Kind: trace.SnoopSuppress, Ack: 0}}, "snoop/suppress-only-dupacks"},
		{"evict twice", []trace.Event{
			{Kind: trace.SnoopEvict, Seq: 2 * mss},
			{Kind: trace.SnoopEvict, Seq: 2 * mss}}, "snoop/evict-uncached"},
		{"retransmit after evict", []trace.Event{
			{Kind: trace.SnoopEvict, Seq: mss},
			{Kind: trace.SnoopRetx, Seq: mss, Attempt: 2}}, "snoop/retx-uncached"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := append(append([]trace.Event{}, prefix...), tc.next...)
			wantViolation(t, Check(cfg, events), tc.rule, at+len(tc.next)-1)
		})
	}
}

// TestShadowPruning checks the two prunes a new ACK performs against
// their proof obligations. A cached copy goes only when snd_una has
// passed the snd_max of its admission — so a copy re-admitted below
// snd_una (a source retransmission that crossed its own ACK on the wire;
// the agent may still retransmit it on its local timer) survives. A
// discarded packet goes once everything sent before its discard is
// acknowledged.
func TestShadowPruning(t *testing.T) {
	c := New(baseCfg())
	for i := int64(1); i <= snoopSweepFloor; i++ {
		c.snoopCache.Insert(i*mss, snoopSeg{sentTo: (i + 1) * mss})
	}
	c.snoopCache.Insert(0, snoopSeg{retx: 1, sentTo: 40 * mss}) // re-admitted when snd_max was 40 segments
	c.discarded.Insert(7, 10*mss)
	c.discarded.Insert(9, 30*mss)

	c.pruneShadows(20 * mss)

	for i := int64(1); i <= snoopSweepFloor; i++ {
		_, cached := held(c.snoopCache, i*mss)
		if want := (i+1)*mss >= 20*mss; cached != want {
			t.Errorf("segment %d (admitted at snd_max %d): cached=%v after snd_una reached 20 segments, want %v", i, i+1, cached, want)
		}
	}
	if seg, cached := held(c.snoopCache, 0); !cached || seg.retx != 1 {
		t.Errorf("copy re-admitted below snd_una was pruned (cached=%v %+v); its local retransmission would read as snoop/retx-uncached", cached, seg)
	}
	if _, gone := held(c.discarded, 7); gone {
		t.Error("packet discarded before snd_max 10 segments still remembered at snd_una 20")
	}
	if _, gone := held(c.discarded, 9); !gone {
		t.Error("packet discarded at snd_max 30 segments forgotten at snd_una 20")
	}

	// Below the sweep threshold the snoop shadow is left alone: the sweep
	// is paced by doubling, not run per ACK.
	before := len(c.snoopCache)
	c.pruneShadows(1000 * mss)
	if len(c.snoopCache) != before {
		t.Errorf("snoop shadow swept at %d entries, threshold is %d", before, c.snoopSweepAt)
	}
}

// held returns k's value in t and whether t holds k.
func held[K interface{ ~int | ~int64 | ~uint64 }, V any](t queue.Table[K, V], k K) (V, bool) {
	if i := t.Find(k); i >= 0 {
		return t[i].Val, true
	}
	var zero V
	return zero, false
}
