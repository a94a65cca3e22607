package cell

// This file preserves the original object-per-flow engine of the §2
// scheduling study as a test-only reference implementation: the flat
// engine replaced it, and TestRunMatchesReferenceEngine pins the two
// bit-identical on cell.LAN configurations. Behaviour changes must land
// in both or the pin fails.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// refConn bundles one TCP transfer's endpoints and channel.
type refConn struct {
	index    int
	channel  *errmodel.Markov
	queue    *queue.DropTail
	sender   *tcp.Sender
	sink     *tcp.Sink
	wiredFwd *link.Link
	wiredRev *link.Link
}

// refEngine is the shared-radio scheduler: per-connection queues (or one
// global FIFO order emulated through them), a stop-and-wait link ARQ, and
// the policy-specific pick of the next unit.
type refEngine struct {
	sim  *sim.Simulator
	cfg  Config
	ids  *packet.IDGen
	rng  *sim.RNG // corruption + backoff draws
	pred *sim.RNG // predictor error draws

	conns []*refConn

	// fifoOrder holds connection indices in packet-arrival order for the
	// FIFO policy (the queues still hold the packets; this preserves the
	// global order).
	fifoOrder []int

	// Radio state: one unit in flight at a time (stop-and-wait).
	busy     bool
	attempts uint64
	discards uint64
	// skippedBad counts CSDP skip decisions.
	skippedBad uint64
	// ebsnsSent counts per-connection bad-state notifications.
	ebsnsSent uint64
	// tries tracks the current head packet's transmission count per
	// connection (the head is retried until acked or discarded).
	tries map[int]int
	// pollTimer re-kicks the scheduler when CSDP finds all queues
	// blocked by bad channels.
	pollTimer *sim.Timer
	// rr is the round-robin pointer.
	rr int
}

// refPollInterval is how often a fully-blocked CSDP scheduler re-checks
// the channels.
const refPollInterval = 10 * time.Millisecond

// enqueueFromWire admits a data packet arriving over a wired link.
func (e *refEngine) enqueueFromWire(p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	c := e.conns[p.Conn]
	if !c.queue.Push(p) {
		return // tail drop; TCP recovers end to end
	}
	if e.cfg.Policy == FIFO {
		e.fifoOrder = append(e.fifoOrder, p.Conn)
	}
	e.kick()
}

// allDone reports whether every connection finished.
func (e *refEngine) allDone() bool {
	for _, c := range e.conns {
		if !c.sender.Done() {
			return false
		}
	}
	return true
}

// kick starts a transmission if the radio is idle and a unit is eligible.
func (e *refEngine) kick() {
	if e.busy {
		return
	}
	conn, ok := e.pickNext()
	if !ok {
		return
	}
	p := e.conns[conn].queue.Peek()
	if p == nil {
		return
	}
	e.transmit(conn, p)
}

// pickNext selects the next connection to serve, per policy. It reports
// false when nothing is eligible right now.
func (e *refEngine) pickNext() (int, bool) {
	switch e.cfg.Policy {
	case FIFO:
		for len(e.fifoOrder) > 0 {
			conn := e.fifoOrder[0]
			if e.conns[conn].queue.Len() > 0 {
				return conn, true
			}
			// The entry's packet was discarded; drop the stale order slot.
			e.fifoOrder = e.fifoOrder[1:]
		}
		return 0, false
	case RoundRobin:
		return e.nextNonEmpty(func(int) bool { return true })
	default: // CSDP
		conn, ok := e.nextNonEmpty(func(c int) bool { return e.predictGood(c) })
		if ok {
			return conn, true
		}
		// Everything pending is predicted bad: poll again shortly rather
		// than burn the radio on doomed transmissions.
		if e.anyQueued() && !e.pollTimer.Pending() {
			e.pollTimer.Set(refPollInterval)
		}
		return 0, false
	}
}

// nextNonEmpty scans round-robin from the pointer for a non-empty queue
// accepted by eligible.
func (e *refEngine) nextNonEmpty(eligible func(conn int) bool) (int, bool) {
	n := len(e.conns)
	for i := 1; i <= n; i++ {
		conn := (e.rr + i) % n
		if e.conns[conn].queue.Len() == 0 {
			continue
		}
		if !eligible(conn) {
			e.skippedBad++
			continue
		}
		e.rr = conn
		return conn, true
	}
	return 0, false
}

// anyQueued reports whether any connection has pending packets.
func (e *refEngine) anyQueued() bool {
	for _, c := range e.conns {
		if c.queue.Len() > 0 {
			return true
		}
	}
	return false
}

// predictGood consults the channel predictor for a connection.
func (e *refEngine) predictGood(conn int) bool {
	truth := e.conns[conn].channel.StateAt(e.sim.Now()) == errmodel.Good
	if e.pred.Bernoulli(e.cfg.PredictorAccuracy) {
		return truth
	}
	return !truth
}

// transmit puts the head packet of conn on the radio (stop-and-wait: the
// radio is held until the link-ack deadline).
func (e *refEngine) transmit(conn int, p *packet.Packet) {
	e.busy = true
	e.attempts++
	e.tries[conn]++

	start := e.sim.Now()
	tx := units.TransmissionTime(p.Size(), e.cfg.WirelessRate)
	ackTx := units.TransmissionTime(packet.ControlSize, e.cfg.WirelessRate)
	cycle := tx + 2*e.cfg.WirelessDelay + ackTx

	e.sim.Schedule(cycle, func() {
		e.busy = false
		ch := e.conns[conn].channel
		dataBits := int64(p.Size().Bits())
		corrupted := e.rng.PoissonAtLeastOne(ch.ExpectedBitErrors(start, start+tx, dataBits))
		ackLost := false
		if !corrupted {
			// The link ack rides the same fading channel.
			ackStart := start + tx + e.cfg.WirelessDelay
			ackLost = e.rng.PoissonAtLeastOne(ch.ExpectedBitErrors(ackStart, ackStart+ackTx, int64(packet.ControlSize.Bits())))
			// Data arrived: deliver regardless of the ack's fate (a lost
			// ack only causes a duplicate later).
			e.deliver(conn, p)
		}
		if corrupted || ackLost {
			e.onAttemptFailed(conn)
		} else {
			e.onAttemptSucceeded(conn)
		}
		e.kick()
	})
}

// onAttemptSucceeded pops the acknowledged head and resets its try count.
func (e *refEngine) onAttemptSucceeded(conn int) {
	c := e.conns[conn]
	c.queue.Pop()
	delete(e.tries, conn)
	if e.cfg.Policy == FIFO && len(e.fifoOrder) > 0 {
		e.fifoOrder = e.fifoOrder[1:]
	}
}

// onAttemptFailed retries or discards the head packet. Under FIFO the
// head keeps the radio's attention (head-of-line blocking — the
// phenomenon this study quantifies); under RR/CSDP the failed head simply
// waits for its connection's next turn.
func (e *refEngine) onAttemptFailed(conn int) {
	if e.cfg.EBSN {
		// The paper's mechanism, generalized to many connections: the
		// base station notifies every source whose data it is holding up
		// — the one whose transmission failed and any bystanders queued
		// behind it (under FIFO their delay is just as real; their
		// timers must be pushed back too).
		for i, c := range e.conns {
			if i != conn && c.queue.Len() == 0 {
				continue
			}
			e.ebsnsSent++
			sender := c.sender
			connID := i
			e.sim.Schedule(e.cfg.WiredDelay, func() {
				sender.Receive(&packet.Packet{Kind: packet.EBSN, Conn: connID})
			})
		}
	}
	if e.tries[conn] <= e.cfg.RTmax {
		return // head stays queued; the next pick may retry it
	}
	// Discard after RTmax retransmissions.
	e.discards++
	c := e.conns[conn]
	c.queue.Pop()
	delete(e.tries, conn)
	if e.cfg.Policy == FIFO && len(e.fifoOrder) > 0 {
		e.fifoOrder = e.fifoOrder[1:]
	}
}

// deliver hands a data packet to the mobile host's TCP sink; the TCP ack
// travels back over the (fading) uplink and the wired reverse hop.
// Radio contention for TCP acks is not modeled (they are small; the
// original study treats them as cheap).
func (e *refEngine) deliver(conn int, p *packet.Packet) {
	c := e.conns[conn]
	e.sim.Schedule(e.cfg.WirelessDelay, func() { c.sink.Receive(p) })
}

// ackFromMobile carries a TCP ack across the uplink (with fading) toward
// the fixed host.
func (e *refEngine) ackFromMobile(c *refConn, ack *packet.Packet) {
	start := e.sim.Now()
	ackTx := units.TransmissionTime(ack.Size(), e.cfg.WirelessRate)
	lost := e.rng.PoissonAtLeastOne(
		c.channel.ExpectedBitErrors(start, start+ackTx, int64(ack.Size().Bits())))
	if lost {
		return
	}
	e.sim.Schedule(ackTx+e.cfg.WirelessDelay, func() {
		c.wiredRev.Send(ack)
	})
}

// refRun executes cfg on the reference engine above — the original
// object-per-flow implementation of the scheduling study. It models one
// base station, independent per-flow fading, EBSN broadcast to queued
// flows and admission at t=0, and refuses any other configuration.
func refRun(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BaseStations > 1 || cfg.SharedChannel || !cfg.EBSNBroadcast ||
		cfg.AdmitBatch > 0 || cfg.OracleSample > 0 || cfg.Chaos.enabled() {
		return nil, fmt.Errorf("reference engine: configuration outside its model")
	}
	cfg = cfg.withDefaults()

	s := sim.New()
	ids := &packet.IDGen{}
	rng := sim.NewRNG(cfg.Seed)

	e := &refEngine{
		sim:   s,
		cfg:   cfg,
		ids:   ids,
		rng:   rng.Split(),
		pred:  rng.Split(),
		tries: make(map[int]int),
	}
	e.pollTimer = sim.NewTimer(s, e.kick)

	mss := cfg.PacketSize - packet.HeaderSize
	for i := 0; i < cfg.Flows; i++ {
		ch, err := errmodel.NewMarkov(cfg.Channel, rng.Split())
		if err != nil {
			return nil, err
		}
		conn := &refConn{index: i, channel: ch, queue: queue.New(cfg.PerFlowQueue)}
		e.conns = append(e.conns, conn)

		conn.wiredFwd, err = link.New(s, link.Config{
			Name: fmt.Sprintf("wired-fwd-%d", i), Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
		}, nil, e.enqueueFromWire)
		if err != nil {
			return nil, err
		}
		conn.wiredRev, err = link.New(s, link.Config{
			Name: fmt.Sprintf("wired-rev-%d", i), Rate: cfg.WiredRate, Delay: cfg.WiredDelay, QueueLimit: 50,
		}, nil, func(p *packet.Packet) { conn.sender.Receive(p) })
		if err != nil {
			return nil, err
		}

		conn.sink, err = tcp.NewSink(s, cfg.Window, ids, func(p *packet.Packet) {
			p.Conn = conn.index
			e.ackFromMobile(conn, p)
		})
		if err != nil {
			return nil, err
		}
		conn.sender, err = tcp.NewSender(s, tcp.Config{
			MSS:    mss,
			Window: cfg.Window,
			Total:  cfg.TransferSize,
		}, ids, func(p *packet.Packet) {
			p.Conn = conn.index
			conn.wiredFwd.Send(p)
		})
		if err != nil {
			return nil, err
		}
	}

	for _, c := range e.conns {
		c.sender.Start()
	}
	for !e.allDone() && s.Now() < cfg.Horizon {
		if ok, err := s.Step(); !ok || err != nil {
			break
		}
	}

	res := &Result{
		Config:        cfg,
		RadioAttempts: e.attempts,
		RadioDiscards: e.discards,
		SkippedBad:    e.skippedBad,
		EBSNsSent:     e.ebsnsSent,
	}
	var sum, sumSq float64
	for _, c := range e.conns {
		elapsed := c.sender.FinishedAt()
		if !c.sender.Done() {
			elapsed = s.Now()
		} else {
			res.CompletedFlows++
		}
		tput := units.ThroughputKbps(cfg.TransferSize, elapsed)
		st := c.sender.Stats()
		res.Flows = append(res.Flows, FlowResult{
			Completed:    c.sender.Done(),
			Elapsed:      elapsed,
			Timeouts:     st.Timeouts,
			RetransBytes: st.RetransBytes,
		})
		res.TotalTimeouts += st.Timeouts
		res.AggregateKbps += tput
		sum += tput
		sumSq += tput * tput
	}
	res.Completed = res.CompletedFlows == len(e.conns)
	if n := float64(len(e.conns)); sumSq > 0 {
		res.Fairness = sum * sum / (n * sumSq)
	}
	return res, nil
}

// TestRunMatchesReferenceEngine pins the flat engine bit-identical to the
// reference engine across policies, EBSN settings, seeds, and population
// sizes: every per-flow result — elapsed times to the nanosecond, radio
// counters exactly, aggregate throughput and fairness to the last bit —
// must agree. Any divergence means the flat port's semantics drifted.
func TestRunMatchesReferenceEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	for _, n := range []int{1, 2, 4} {
		for _, policy := range []Policy{FIFO, RoundRobin, CSDP} {
			for _, ebsn := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					n, policy, ebsn, seed := n, policy, ebsn, seed
					name := fmt.Sprintf("n%d/%v/ebsn=%v/seed%d", n, policy, ebsn, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := LAN(n, policy, time.Second)
						// Small transfers so every sweep point completes
						// well inside the horizon (the engines may
						// legally differ in which event straddles the
						// horizon boundary).
						cfg.TransferSize = 96 * units.KB
						cfg.EBSN = ebsn
						cfg.Seed = seed
						if policy == CSDP {
							cfg.PredictorAccuracy = 0.9
						}

						want, err := refRun(cfg)
						if err != nil {
							t.Fatalf("reference engine: %v", err)
						}
						got, err := Run(cfg)
						if err != nil {
							t.Fatalf("cell engine: %v", err)
						}
						if !want.Completed {
							t.Fatalf("reference run did not complete; grow the horizon")
						}
						diffResults(t, want, got)
					})
				}
			}
		}
	}
}

// diffResults compares every field the reference engine reports,
// reporting mismatches precisely enough to debug a divergence.
func diffResults(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Completed != want.Completed || got.CompletedFlows != want.CompletedFlows {
		t.Errorf("Completed: got %v (%d flows) want %v (%d flows)",
			got.Completed, got.CompletedFlows, want.Completed, want.CompletedFlows)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"RadioAttempts", got.RadioAttempts, want.RadioAttempts},
		{"RadioDiscards", got.RadioDiscards, want.RadioDiscards},
		{"SkippedBad", got.SkippedBad, want.SkippedBad},
		{"EBSNsSent", got.EBSNsSent, want.EBSNsSent},
		{"TotalTimeouts", got.TotalTimeouts, want.TotalTimeouts},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %d want %d", c.name, c.got, c.want)
		}
	}
	if math.Float64bits(got.AggregateKbps) != math.Float64bits(want.AggregateKbps) {
		t.Errorf("AggregateKbps: got %v want %v", got.AggregateKbps, want.AggregateKbps)
	}
	if math.Float64bits(got.Fairness) != math.Float64bits(want.Fairness) {
		t.Errorf("Fairness: got %v want %v", got.Fairness, want.Fairness)
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("Flows length: got %d want %d", len(got.Flows), len(want.Flows))
	}
	for i := range want.Flows {
		if got.Flows[i] != want.Flows[i] {
			t.Errorf("flow %d: got %+v want %+v", i, got.Flows[i], want.Flows[i])
		}
	}
}
