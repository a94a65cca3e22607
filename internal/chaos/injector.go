package chaos

import (
	"errors"
	"time"

	"wtcp/internal/link"
	"wtcp/internal/packet"
	"wtcp/internal/sim"
)

// Stats counts injected faults over a run.
type Stats struct {
	// StormDrops counts deliveries lost to burst-loss storms; blackout
	// losses appear in the affected link's Corrupted counter instead
	// (blackouts are modelled as certain corruption at the channel).
	StormDrops uint64
	// CorruptDrops, Duplicates, and Reorders count per-packet fault
	// injections across all hops.
	CorruptDrops uint64
	Duplicates   uint64
	Reorders     uint64
	// NotifyDropped, NotifyDuplicated, and NotifyDelayed count EBSN/
	// quench notification faults.
	NotifyDropped    uint64
	NotifyDuplicated uint64
	NotifyDelayed    uint64
	// Crashes counts base-station failures injected; CrashLostPackets
	// counts the forwarding state lost with them.
	Crashes          uint64
	CrashLostPackets uint64
	// Handoffs counts cell switches; HandoffDrops counts the packets lost
	// to them (the station's forwarding state at each detach, and wired
	// arrivals and downlink deliveries during each gap).
	Handoffs     uint64
	HandoffDrops uint64
	// EventStormEvents counts kernel events fired by event storms (the
	// resource-exhaustion fault).
	EventStormEvents uint64
}

// Crashable is the station-side contract for crash injection. Crash
// returns the number of packets whose forwarding state was lost.
type Crashable interface {
	Crash() int
	Restart()
}

// Flushable is the station-side contract for handoff injection. Flush
// drops the station's per-cell state and returns the number of packets
// whose forwarding state was lost.
type Flushable interface {
	Flush() int
}

// Injector executes a validated fault plan against an assembled topology.
// Create with New, then Attach each link, ScheduleCrashes and
// ScheduleHandoffs the base station; everything else runs off simulation
// events.
type Injector struct {
	sim *sim.Simulator
	rng *sim.RNG
	cfg *Config

	// held are the packets a delay or reorder fault is keeping back, each
	// with a reference of the injector's own until it is re-injected.
	held []*packet.Packet

	// detached marks a handoff gap: the mobile host is between cells.
	detached bool

	stats Stats
}

// New builds an injector for the given plan. rng must be dedicated to the
// injector (derived from the scenario seed) so chaos draws never perturb
// the channel's or the ARQ's sequences.
func New(s *sim.Simulator, cfg *Config, rng *sim.RNG) (*Injector, error) {
	if s == nil {
		return nil, errors.New("chaos: nil simulator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Enabled() && rng == nil {
		return nil, errors.New("chaos: nil RNG")
	}
	return &Injector{sim: s, rng: rng, cfg: cfg}, nil
}

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// faultsFor returns the per-packet fault entry for a hop, if any.
func (in *Injector) faultsFor(name string) (PacketFaults, bool) {
	for _, p := range in.cfg.Packets {
		if p.Link == name && p.enabled() {
			return p, true
		}
	}
	return PacketFaults{}, false
}

// stormsFor returns the storm windows for a hop.
func (in *Injector) stormsFor(name string) []Storm {
	var out []Storm
	for _, s := range in.cfg.Storms {
		if s.Link == name && s.LossProb > 0 {
			out = append(out, s)
		}
	}
	return out
}

// notifyApplies reports whether notification faults act on this hop.
// Notifications travel BS -> FH, i.e. the reverse wired hop.
func (in *Injector) notifyApplies(name string) bool {
	return name == WiredRev && in.cfg.Notify.enabled()
}

// Attach installs this plan's delivery-time faults on l (storms, packet
// corruption/duplication/reordering, on the reverse wired hop
// notification faults, and on the two hops into the cell a handoff gap).
// Hops with no applicable faults are left untouched. Blackouts are not
// handled here: they ride the link's error channel via
// Config.OverlayChannel.
func (in *Injector) Attach(l *link.Link) {
	name := l.Name()
	pf, hasPF := in.faultsFor(name)
	storms := in.stormsFor(name)
	notify := in.notifyApplies(name)
	gap := in.cfg.Handoff != nil && (name == WiredFwd || name == WirelessDown)
	if !hasPF && len(storms) == 0 && !notify && !gap {
		return
	}
	l.SetInterceptor(func(p *packet.Packet) bool {
		if gap && in.detached {
			in.stats.HandoffDrops++
			return false
		}
		now := in.sim.Now()
		for _, s := range storms {
			if now >= s.At && now < s.At+s.Length && in.rng.Bernoulli(s.LossProb) {
				in.stats.StormDrops++
				return false
			}
		}
		if notify && p.IsNotification() {
			return in.deliverNotification(l, p)
		}
		if hasPF {
			return in.deliverWithPacketFaults(l, pf, p)
		}
		return true
	})
}

// hold keeps p back for delay and then hands it to l's receiver. The link
// releases its own reference to a consumed packet, so the injector takes
// one for the wait; Inject passes it on.
func (in *Injector) hold(l *link.Link, p *packet.Packet, delay time.Duration) {
	p.Retain()
	in.held = append(in.held, p)
	in.sim.Schedule(delay, func() {
		for i, h := range in.held {
			if h == p {
				in.held = append(in.held[:i], in.held[i+1:]...)
				break
			}
		}
		l.Inject(p)
	})
}

// ReleaseAll gives up the packets still held back when the run ends. It
// is the end-of-run teardown; the injector must not run afterwards.
func (in *Injector) ReleaseAll() {
	for _, p := range in.held {
		p.Release()
	}
	in.held = nil
}

// deliverNotification applies loss/duplication/delay to one EBSN or
// quench message. Returning false consumes the original; duplicated or
// delayed copies re-enter the receiver via Inject. A duplicate is a
// by-value copy, which no pool owns.
func (in *Injector) deliverNotification(l *link.Link, p *packet.Packet) bool {
	if in.rng.Bernoulli(in.cfg.Notify.LossProb) {
		in.stats.NotifyDropped++
		return false
	}
	if in.cfg.Notify.DupProb > 0 && in.rng.Bernoulli(in.cfg.Notify.DupProb) {
		in.stats.NotifyDuplicated++
		dup := *p
		in.sim.Schedule(0, func() { l.Inject(&dup) })
	}
	if in.cfg.Notify.DelayProb > 0 && in.rng.Bernoulli(in.cfg.Notify.DelayProb) {
		in.stats.NotifyDelayed++
		in.hold(l, p, in.cfg.Notify.Delay)
		return false
	}
	return true
}

// deliverWithPacketFaults applies the per-packet corruption, duplication,
// and reordering draws. Order matters and is fixed for determinism:
// corruption first (a corrupted packet cannot also duplicate), then
// duplication, then reordering.
func (in *Injector) deliverWithPacketFaults(l *link.Link, pf PacketFaults, p *packet.Packet) bool {
	if pf.CorruptProb > 0 && in.rng.Bernoulli(pf.CorruptProb) {
		in.stats.CorruptDrops++
		return false
	}
	if pf.DupProb > 0 && in.rng.Bernoulli(pf.DupProb) {
		in.stats.Duplicates++
		dup := *p
		in.sim.Schedule(0, func() { l.Inject(&dup) })
	}
	if pf.ReorderProb > 0 && in.rng.Bernoulli(pf.ReorderProb) {
		in.stats.Reorders++
		in.hold(l, p, pf.ReorderDelay)
		return false
	}
	return true
}

// ScheduleCrashes arms the plan's base-station crash/restart cycles
// against target.
func (in *Injector) ScheduleCrashes(target Crashable) {
	for _, cr := range in.cfg.Crashes {
		cr := cr
		in.sim.ScheduleAt(cr.At, func() {
			in.stats.Crashes++
			in.stats.CrashLostPackets += uint64(target.Crash())
		})
		in.sim.ScheduleAt(cr.At+cr.Downtime, func() { target.Restart() })
	}
}

// ScheduleHandoffs arms the plan's cell switches (see Handoff): station
// is flushed at every detach, and with DupAcks dupAcks runs at every
// reattach. The next dwell starts at the reattach, so the cycle repeats
// every Dwell+Gap until the run ends.
func (in *Injector) ScheduleHandoffs(station Flushable, dupAcks func()) {
	h := in.cfg.Handoff
	if h == nil {
		return
	}
	var detach, reattach func()
	detach = func() {
		in.detached = true
		in.stats.Handoffs++
		in.stats.HandoffDrops += uint64(station.Flush())
		in.sim.Schedule(h.Gap, reattach)
	}
	reattach = func() {
		in.detached = false
		if h.DupAcks {
			dupAcks()
		}
		in.sim.Schedule(h.Dwell, detach)
	}
	in.sim.Schedule(h.Dwell, detach)
}

// ScheduleEventStorms arms the plan's event storms: each floods the
// kernel with self-rescheduling events starting at its At. The storm
// touches no packets and draws no randomness — its entire effect is
// scheduler load, which is exactly what a resource budget (sim.Budget)
// exists to bound. An unbounded zero-spacing storm is a deliberate
// same-instant livelock: without an event budget nothing ends the run.
func (in *Injector) ScheduleEventStorms() {
	for _, es := range in.cfg.EventStorms {
		es := es
		fired := int64(0)
		var tick func()
		tick = func() {
			in.stats.EventStormEvents++
			fired++
			if es.Count > 0 && fired >= es.Count {
				return
			}
			in.sim.Schedule(es.Spacing, tick)
		}
		in.sim.ScheduleAt(es.At, tick)
	}
}

// Horizon reports the virtual time of the last scheduled fault (the end
// of the latest window, crash downtime, or zero when the plan only has
// probabilistic faults; a handoff counts with its first detach, since it
// repeats until the run ends). Scenario runners can use it to
// sanity-check that the run horizon actually covers the injected faults.
func (c *Config) Horizon() time.Duration {
	if c == nil {
		return 0
	}
	var h time.Duration
	bump := func(t time.Duration) {
		if t > h {
			h = t
		}
	}
	for _, b := range c.Blackouts {
		bump(b.At + b.Length)
	}
	for _, s := range c.Storms {
		bump(s.At + s.Length)
	}
	for _, cr := range c.Crashes {
		bump(cr.At + cr.Downtime)
	}
	if c.Handoff != nil {
		bump(c.Handoff.Dwell)
	}
	for _, es := range c.EventStorms {
		end := es.At
		if es.Count > 0 {
			end += time.Duration(es.Count-1) * es.Spacing
		}
		bump(end)
	}
	return h
}
