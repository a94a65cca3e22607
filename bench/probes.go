package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/core"
	"wtcp/internal/errmodel"
	"wtcp/internal/experiment"
	"wtcp/internal/ip"
	"wtcp/internal/link"
	"wtcp/internal/node"
	"wtcp/internal/oracle"
	"wtcp/internal/packet"
	"wtcp/internal/queue"
	"wtcp/internal/serve"
	"wtcp/internal/sim"
	"wtcp/internal/tcp"
	"wtcp/internal/trace"
	"wtcp/internal/units"
)

// Direct probes of each hot module's public API. A probe builds its
// subject untimed, runs a fixed amount of work timed, and repeats; the
// figure is the quiet-decile repeat, and allocation counts come from
// the last repeat (they repeat exactly, the harness adds none of its
// own inside the timed part).

// probeRun is one prepared repetition: run does `units` units of work.
type probeRun struct {
	units int
	run   func() error
}

// probed is a probe's figures per unit of work.
type probed struct {
	ns, allocs float64
}

// repeats is how many times a probe repeats its timed work.
func (p params) repeats() int {
	if p.smoke {
		return 2
	}
	return 7
}

func probe(p params, prepare func() (probeRun, error)) (probed, error) {
	var nsPer []float64
	var out probed
	for i := 0; i < p.repeats(); i++ {
		pr, err := prepare()
		if err != nil {
			return out, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err = pr.run()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return out, err
		}
		nsPer = append(nsPer, float64(d.Nanoseconds())/float64(pr.units))
		out.allocs = float64(after.Mallocs-before.Mallocs) / float64(pr.units)
	}
	out.ns = quiet(nsPer, lower)
	return out, nil
}

// scale shrinks a probe's work at smoke size.
func (p params) scale(n int) int {
	if p.smoke {
		return max(n/50, 10)
	}
	return n
}

// dataPackets preallocates n data segments so a probe's timed part
// allocates nothing of its own.
func dataPackets(ids *packet.IDGen, n int, payload units.ByteSize) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{ID: ids.Next(), Kind: packet.Data, Seq: int64(i) * int64(payload), Payload: payload}
	}
	return pkts
}

// fadedChannel corrupts every transmission: the medium in a deep fade.
type fadedChannel struct{}

func (fadedChannel) StateAt(time.Duration) errmodel.State { return errmodel.Bad }
func (fadedChannel) ExpectedBitErrors(_, _ time.Duration, bits int64) float64 {
	return float64(bits)
}

// runProbes measures every direct per-layer figure.
func runProbes(p params, rep *report) error {
	sp := p.tr.start("probes", noSpan, "")
	defer p.tr.end(sp)
	steps := []struct {
		name string
		fn   func(params, *report) error
	}{
		{"sim", probeSim}, {"errmodel", probeErrmodel}, {"queue", probeQueue}, {"link", probeLink},
		{"ip", probeIP}, {"node", probeNode}, {"tcp", probeTCP}, {"bs", probeBS},
		{"core", probeCore}, {"oracle+trace", probeOracleTrace}, {"experiment", probeExperiment}, {"serve", probeServeParse},
	}
	for _, st := range steps {
		s := p.tr.start("probe."+st.name, sp, "")
		err := st.fn(p, rep)
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("probe %s: %w", st.name, err)
		}
	}
	return nil
}

func probeSim(p params, rep *report) error {
	n := p.scale(200000)
	ev, err := probe(p, func() (probeRun, error) {
		s := sim.New()
		nop := func() {}
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				s.Schedule(time.Duration(i%1000)*time.Microsecond, nop)
				if i%1024 == 1023 {
					if err := s.RunAll(); err != nil {
						return err
					}
				}
			}
			return s.RunAll()
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("sim.ns_per_event", ev.ns, "ns", "Schedule + dispatch of a no-op event")
	tm, err := probe(p, func() (probeRun, error) {
		s := sim.New()
		t := sim.NewTimer(s, func() {})
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				t.Set(time.Second)
			}
			t.Stop()
			return s.RunAll()
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("sim.timer_set_ns", tm.ns, "ns", "re-arming one pending Timer")
	return nil
}

func probeErrmodel(p params, rep *report) error {
	n := p.scale(200000)
	q, err := probe(p, func() (probeRun, error) {
		ch, err := errmodel.NewMarkov(errmodel.PaperWAN(2*time.Second), sim.NewRNG(baseSeed(p.seed)+1))
		if err != nil {
			return probeRun{}, err
		}
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				at := time.Duration(i%100000) * time.Millisecond
				ch.ExpectedBitErrors(at, at+80*time.Millisecond, 1536)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("errmodel.query_ns", q.ns, "ns", "Markov.ExpectedBitErrors over an 80 ms transmission")
	return nil
}

func probeQueue(p params, rep *report) error {
	n := p.scale(400000)
	q, err := probe(p, func() (probeRun, error) {
		dt := queue.New(64)
		pkt := &packet.Packet{Kind: packet.Data, Payload: 536}
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				dt.Push(pkt)
				if i%8 == 7 {
					for dt.Pop() != nil {
					}
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("queue.pushpop_ns", q.ns, "ns", "DropTail Push + Pop")
	return nil
}

func probeLink(p params, rep *report) error {
	n := p.scale(50000)
	l, err := probe(p, func() (probeRun, error) {
		s := sim.New()
		ids := &packet.IDGen{}
		delivered := 0
		lk, err := link.New(s, link.WiredLAN(time.Millisecond), nil, func(*packet.Packet) { delivered++ })
		if err != nil {
			return probeRun{}, err
		}
		pkts := dataPackets(ids, n, 1496)
		return probeRun{units: n, run: func() error {
			for i, pkt := range pkts {
				lk.Send(pkt)
				if i%32 == 31 {
					if err := s.RunAll(); err != nil {
						return err
					}
				}
			}
			if err := s.RunAll(); err != nil {
				return err
			}
			if delivered != n {
				return fmt.Errorf("link delivered %d of %d packets", delivered, n)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("link.send_ns_per_pkt", l.ns, "ns", "Send + serialize + deliver on an error-free 10 Mbps link")
	rep.set("link.allocs_per_pkt", l.allocs, "count", "")
	return nil
}

// fragmentsOf slices n 576-byte packets at MTU 128 (5 fragments each).
func fragmentsOf(ids *packet.IDGen, n int) ([][]*packet.Packet, error) {
	f, err := ip.NewFragmenter(128, ids)
	if err != nil {
		return nil, err
	}
	out := make([][]*packet.Packet, n)
	for i, pkt := range dataPackets(ids, n, 536) {
		out[i] = f.Fragment(pkt)
	}
	return out, nil
}

func probeIP(p params, rep *report) error {
	n := p.scale(50000)
	fr, err := probe(p, func() (probeRun, error) {
		ids := &packet.IDGen{}
		f, err := ip.NewFragmenter(128, ids)
		if err != nil {
			return probeRun{}, err
		}
		pkts := dataPackets(ids, n, 536)
		return probeRun{units: n, run: func() error {
			for _, pkt := range pkts {
				if got := len(f.Fragment(pkt)); got != 5 {
					return fmt.Errorf("576 B at MTU 128 made %d fragments, want 5", got)
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("ip.frag_ns_per_pkt", fr.ns, "ns", "Fragment of a 576 B packet at MTU 128 (5 fragments)")
	rep.set("ip.frag_allocs_per_pkt", fr.allocs, "count", "")

	re, err := probe(p, func() (probeRun, error) {
		s := sim.New()
		ids := &packet.IDGen{}
		done := 0
		r, err := ip.NewReassembler(s, 0, func(*packet.Packet) { done++ })
		if err != nil {
			return probeRun{}, err
		}
		frags, err := fragmentsOf(ids, n)
		if err != nil {
			return probeRun{}, err
		}
		return probeRun{units: n, run: func() error {
			for _, group := range frags {
				for _, fg := range group {
					r.Receive(fg)
				}
			}
			if done != n {
				return fmt.Errorf("reassembled %d of %d packets", done, n)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("ip.reasm_ns_per_pkt", re.ns, "ns", "Receive of the 5 fragments of one packet")
	rep.set("ip.reasm_allocs_per_pkt", re.allocs, "count", "")
	return nil
}

func probeNode(p params, rep *report) error {
	n := p.scale(20000)
	rx, err := probe(p, func() (probeRun, error) {
		s := sim.New()
		ids := &packet.IDGen{}
		delivered, acks := 0, 0
		m, err := node.NewMobileDeliver(s, node.MobileConfig{LinkAcks: true}, ids,
			func(*packet.Packet) { delivered++ }, func(*packet.Packet) { acks++ })
		if err != nil {
			return probeRun{}, err
		}
		frags, err := fragmentsOf(ids, n)
		if err != nil {
			return probeRun{}, err
		}
		return probeRun{units: 5 * n, run: func() error {
			for _, group := range frags {
				for _, fg := range group {
					m.Receive(fg)
				}
			}
			if delivered != n || acks != 5*n {
				return fmt.Errorf("mobile delivered %d of %d packets, sent %d of %d link acks", delivered, n, acks, 5*n)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("node.rx_ns_per_frag", rx.ns, "ns", "Mobile.Receive of one fragment: link ack + reassembly + delivery")
	rep.set("node.rx_allocs_per_frag", rx.allocs, "count", "")
	return nil
}

// pipe carries packets between two endpoints with a fixed delay through
// one pre-bound callback per direction, so the harness allocates nothing
// per packet.
type pipe struct {
	s     *sim.Simulator
	delay time.Duration
	ring  []*packet.Packet
	head  int
	to    func(*packet.Packet)
	pump  func()
}

func newPipe(s *sim.Simulator, delay time.Duration, capacity int) *pipe {
	pp := &pipe{s: s, delay: delay, ring: make([]*packet.Packet, 0, capacity)}
	pp.pump = func() {
		pkt := pp.ring[pp.head]
		pp.head++
		pp.to(pkt)
	}
	return pp
}

func (pp *pipe) send(pkt *packet.Packet) {
	pp.ring = append(pp.ring, pkt)
	pp.s.Schedule(pp.delay, pp.pump)
}

func probeTCP(p params, rep *report) error {
	total := units.ByteSize(p.scale(8000)) * 1460
	variants := []struct {
		tag string
		v   tcp.Variant
	}{{"tahoe", tcp.Tahoe}, {"reno", tcp.Reno}, {"newreno", tcp.NewReno}, {"sack", tcp.SACKVariant}}
	for _, vr := range variants {
		var segs uint64
		r, err := probe(p, func() (probeRun, error) {
			s := sim.New()
			ids := &packet.IDGen{}
			capacity := 4 * int(total/1460)
			fwd, rev := newPipe(s, 5*time.Millisecond, capacity), newPipe(s, 5*time.Millisecond, capacity)
			sink, err := tcp.NewSink(s, 64*units.KB, ids, rev.send)
			if err != nil {
				return probeRun{}, err
			}
			sent := 0
			sender, err := tcp.NewSender(s, tcp.Config{MSS: 1460, Window: 64 * units.KB, Total: total, Variant: vr.v}, ids,
				func(pkt *packet.Packet) {
					if sent++; sent%50 == 0 {
						return // the pipe drops every 50th segment
					}
					fwd.send(pkt)
				})
			if err != nil {
				return probeRun{}, err
			}
			if vr.v.Scoreboard() {
				sink.EnableSACK()
			}
			fwd.to, rev.to = sink.Receive, sender.Receive
			return probeRun{units: int(total / 1460), run: func() error {
				sender.Start()
				for !sender.Done() {
					if ok, err := s.Step(); !ok || err != nil {
						return fmt.Errorf("%s transfer stalled at %v: %v", vr.tag, s.Now(), err)
					}
				}
				segs = sender.Stats().SegmentsSent
				return nil
			}}, nil
		})
		if err != nil {
			return err
		}
		rep.set("tcp."+vr.tag+".ns_per_seg", r.ns, "ns", fmt.Sprintf("sender+sink per payload segment, every 50th dropped (%d sent)", segs))
		if vr.v == tcp.Tahoe {
			rep.set("tcp.allocs_per_seg", r.allocs, "count", "Tahoe sender + sink, per payload segment")
		}
	}
	return nil
}

// bsRig is a base station with a downlink to a mobile host and an uplink
// back, the smallest topology in which bs does its work.
type bsRig struct {
	s       *sim.Simulator
	ids     *packet.IDGen
	station *bs.BaseStation
	toWired int
}

func newBSRig(seed int64, scheme bs.Scheme, mtu units.ByteSize, ch errmodel.Channel, withSink bool) (*bsRig, error) {
	rig := &bsRig{s: sim.New(), ids: &packet.IDGen{}}
	rng := sim.NewRNG(seed)
	var mobile *node.Mobile
	up, err := link.New(rig.s, link.WirelessLAN(time.Millisecond, nil), rng.Split(), func(pkt *packet.Packet) { rig.station.FromWireless(pkt) })
	if err != nil {
		return nil, err
	}
	down, err := link.New(rig.s, link.WirelessLAN(time.Millisecond, ch), rng.Split(), func(pkt *packet.Packet) { mobile.Receive(pkt) })
	if err != nil {
		return nil, err
	}
	rig.station, err = bs.New(rig.s, bs.Config{Scheme: scheme, MTU: mtu}, rig.ids, rng.Split(), down, func(*packet.Packet) { rig.toWired++ })
	if err != nil {
		return nil, err
	}
	uplink := func(pkt *packet.Packet) { up.Send(pkt) }
	cfg := node.MobileConfig{LinkAcks: scheme.UsesLinkAcks()}
	if withSink {
		sink, err := tcp.NewSink(rig.s, 64*units.KB, rig.ids, uplink)
		if err != nil {
			return nil, err
		}
		mobile, err = node.NewMobile(rig.s, cfg, rig.ids, sink, uplink)
		if err != nil {
			return nil, err
		}
	} else if mobile, err = node.NewMobileDeliver(rig.s, cfg, rig.ids, func(*packet.Packet) {}, uplink); err != nil {
		return nil, err
	}
	return rig, nil
}

// feed hands pkts to the base station one every gap and runs to quiescence.
func (rig *bsRig) feed(pkts []*packet.Packet, gap time.Duration) error {
	next := 0
	var tick func()
	tick = func() {
		rig.station.FromWired(pkts[next])
		if next++; next < len(pkts) {
			rig.s.Schedule(gap, tick)
		}
	}
	rig.s.Schedule(0, tick)
	return rig.s.RunAll()
}

func probeBS(p params, rep *report) error {
	seed := baseSeed(p.seed) + 1
	n := p.scale(5000)
	arq, err := probe(p, func() (probeRun, error) {
		rig, err := newBSRig(seed, bs.LocalRecovery, 128, nil, false)
		if err != nil {
			return probeRun{}, err
		}
		pkts := dataPackets(rig.ids, n, 536)
		return probeRun{units: n, run: func() error {
			if err := rig.feed(pkts, 4*time.Millisecond); err != nil {
				return err
			}
			if st := rig.station.Stats(); st.DataDropped != 0 || st.ARQDiscards != 0 || st.LinkAcks < uint64(5*n) {
				return fmt.Errorf("ARQ probe: %+v", st)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("bs.arq_ns_per_pkt", arq.ns, "ns", "local recovery of a 576 B packet at MTU 128 over a clean radio (bs + link + mobile)")
	rep.set("bs.allocs_per_pkt", arq.allocs, "count", "same path")

	snoop, err := probe(p, func() (probeRun, error) {
		rig, err := newBSRig(seed, bs.Snoop, 0, nil, true)
		if err != nil {
			return probeRun{}, err
		}
		pkts := dataPackets(rig.ids, n, 1496)
		return probeRun{units: n, run: func() error {
			if err := rig.feed(pkts, 8*time.Millisecond); err != nil {
				return err
			}
			if st := rig.station.Stats(); st.DataDropped != 0 || st.AcksForwarded < uint64(n) || rig.station.SnoopCacheLen() != 0 {
				return fmt.Errorf("snoop probe: %+v, %d cached at end", st, rig.station.SnoopCacheLen())
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("bs.snoop_ns_per_pkt", snoop.ns, "ns", "snoop cache admit + ack-driven clean per 1536 B packet (bs + link + sink)")

	m := p.scale(500)
	var notes uint64
	notify, err := probe(p, func() (probeRun, error) {
		rig, err := newBSRig(seed, bs.EBSN, 0, fadedChannel{}, false)
		if err != nil {
			return probeRun{}, err
		}
		pkts := dataPackets(rig.ids, m, 536)
		// Every attempt fails in the fade, so each packet costs RTmax+1
		// attempts and as many notifications before it is discarded.
		units := m * (bs.DefaultRTmax + 1)
		return probeRun{units: units, run: func() error {
			if err := rig.feed(pkts, 10*time.Second); err != nil {
				return err
			}
			notes = rig.station.Stats().EBSNsSent
			if notes != uint64(units) || rig.toWired != units {
				return fmt.Errorf("notify probe: %d EBSNs sent, %d reached the wire, want %d", notes, rig.toWired, units)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("bs.notify_ns", notify.ns, "ns", fmt.Sprintf("one failed ARQ attempt + its EBSN, radio in a permanent fade (%d notifications)", notes))
	return nil
}

// probeCore measures whole runs of the two presets at the paper's
// default point, and the cost of building and tearing down a topology.
func probeCore(p params, rep *report) error {
	base := baseSeed(p.seed)
	presets := []struct {
		tag string
		cfg core.Config
		n   int
	}{
		{"wan", core.WAN(bs.EBSN, core.PaperWANPacketDefault, 2*time.Second), p.scale(400)},
		{"lan", core.LAN(bs.EBSN, 800*time.Millisecond), p.scale(100)},
	}
	for _, ps := range presets {
		var events uint64
		run := func(seed int64, count *uint64) error {
			cfg := ps.cfg
			cfg.Seed = seed
			res, err := core.Run(cfg)
			if err != nil {
				return err
			}
			if !res.Completed {
				return fmt.Errorf("%s run (seed %d) did not complete", ps.tag, seed)
			}
			*count += res.Events
			return nil
		}
		// Time per event over batches of consecutive seeds.
		var nsPerEvent []float64
		batches := p.repeats()
		per := max(ps.n/batches, 1)
		for b := 0; b < batches; b++ {
			var ev uint64
			t0 := time.Now()
			for i := 0; i < per; i++ {
				if err := run(base+int64(i)+1, &ev); err != nil {
					return err
				}
			}
			nsPerEvent = append(nsPerEvent, float64(time.Since(t0).Nanoseconds())/float64(ev))
		}
		rep.setQuiet("core."+ps.tag+".ns_per_event", "ns", lower, nsPerEvent)
		// Exact counts of the first seed's run, after the pools are warm.
		// The runtime adds a few allocations of its own around a collection,
		// so the count is the smallest of five identical runs.
		mallocs, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			events = 0
			runtime.ReadMemStats(&before)
			if err := run(base+1, &events); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		rep.set("core."+ps.tag+".events_per_run", float64(events), "count", fmt.Sprintf("seed %d", base+1))
		rep.set("core."+ps.tag+".allocs_per_run", float64(mallocs), "count", "heap allocations of that run, smallest of 5 repeats")
		rep.set("core."+ps.tag+".bytes_per_run", float64(bytes), "B", "heap bytes of that run, smallest of 5 repeats")
	}

	n := p.scale(2000)
	build, err := probe(p, func() (probeRun, error) {
		cfg := core.WAN(bs.EBSN, core.PaperWANPacketDefault, 2*time.Second)
		cfg.TransferSize = cfg.MSS() // one segment: the run is nearly all build + teardown
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				cfg.Seed = base + int64(i) + 1
				if res, err := core.Run(cfg); err != nil || !res.Completed {
					return fmt.Errorf("one-segment run: %v", err)
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("core.build_us", build.ns/1000, "us", "one-segment WAN transfer: topology build + teardown")
	return nil
}

func probeOracleTrace(p params, rep *report) error {
	cfg := core.WAN(bs.EBSN, core.PaperWANPacketDefault, 2*time.Second)
	cfg.Seed = baseSeed(p.seed) + 1
	cfg.CollectTrace, cfg.Oracle = true, true
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	events := res.Trace.Events()
	if len(events) == 0 {
		return fmt.Errorf("recorded trace is empty")
	}
	ocfg := oracle.Config{
		Variant: cfg.Variant, MSS: cfg.MSS(), Window: cfg.Window,
		RTmax: cfg.ARQ.WithDefaults().RTmax, TrackNotifications: true,
	}
	reps := p.scale(200)
	chk, err := probe(p, func() (probeRun, error) {
		return probeRun{units: reps * len(events), run: func() error {
			for i := 0; i < reps; i++ {
				if v := oracle.Check(ocfg, events); v != nil {
					return fmt.Errorf("oracle rejects a trace the run itself accepted: %v", v)
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("oracle.ns_per_event", chk.ns, "ns", fmt.Sprintf("oracle.Check over a recorded %d-event WAN trace", len(events)))
	rep.set("oracle.allocs_per_event", chk.allocs, "count", "")

	// Allocations of one LAN run with the oracle off and on (extra
	// readings beside oracle.on_ratio, which the lan_zoo section times).
	for _, on := range []bool{false, true} {
		c := core.LAN(bs.EBSN, 800*time.Millisecond)
		c.Seed, c.Oracle = cfg.Seed, on
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r, err := core.Run(c); err != nil || !r.Completed {
			return fmt.Errorf("LAN run, oracle=%v: %v", on, err)
		}
		runtime.ReadMemStats(&after)
		name := "oracle.lan.allocs_per_run_off"
		if on {
			name = "oracle.lan.allocs_per_run_on"
		}
		rep.set(name, float64(after.Mallocs-before.Mallocs), "count", "heap allocations of one 4 MB LAN EBSN run")
	}

	enc, err := probe(p, func() (probeRun, error) {
		return probeRun{units: reps / 4 * len(events), run: func() error {
			for i := 0; i < reps/4; i++ {
				if trace.EncodeEvents(cfg.MSS(), events) == "" {
					return fmt.Errorf("empty encoding")
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("trace.encode_ns_per_event", enc.ns, "ns", "canonical golden encoding")

	// CollectTrace on over off, same seeds, alternating.
	n := p.scale(300)
	var ratio []float64
	batches := p.repeats()
	for b := 0; b < batches; b++ {
		var wall [2]time.Duration
		for k := 0; k < 2; k++ {
			on := (b+k)%2 == 1
			t0 := time.Now()
			for i := 0; i < n/batches+1; i++ {
				c := core.WAN(bs.EBSN, core.PaperWANPacketDefault, 2*time.Second)
				c.Seed = baseSeed(p.seed) + int64(i) + 1
				c.CollectTrace = on
				if r, err := core.Run(c); err != nil || !r.Completed {
					return fmt.Errorf("trace on/off run: %v", err)
				}
			}
			if on {
				wall[1] = time.Since(t0)
			} else {
				wall[0] = time.Since(t0)
			}
		}
		ratio = append(ratio, wall[1].Seconds()/wall[0].Seconds())
	}
	rep.set("trace.on_ratio", median(ratio), "ratio", fmt.Sprintf("CollectTrace on / off, median of %d alternating batches", len(ratio)))
	return nil
}

func probeExperiment(p params, rep *report) error {
	opt := experiment.Options{Replications: 2, BaseSeed: baseSeed(p.seed)}
	spec := experiment.PointSpec{Sweep: experiment.SweepFig8, Scheme: "ebsn", Bad: 2 * time.Second, Size: core.PaperWANPacketDefault}
	var pointMs []float64
	for i := 0; i < p.scale(100); i++ {
		t0 := time.Now()
		out, err := experiment.RunPointSpec(context.Background(), opt, spec)
		if err != nil {
			return err
		}
		if len(out.Reps) != opt.Replications {
			return fmt.Errorf("RunPointSpec returned %d replications, want %d", len(out.Reps), opt.Replications)
		}
		pointMs = append(pointMs, ms(time.Since(t0)))
	}
	rep.set("experiment.point_ms_p50", median(pointMs), "ms", fmt.Sprintf("RunPointSpec, 2 replications, %d samples", len(pointMs)))

	// Ledger.Put into a ledger already holding N points: the whole file
	// is re-marshalled and rewritten per put.
	path := p.scratch("ledger-probe.ckpt")
	defer os.Remove(path)
	defer os.Remove(path + ".lock")
	led, err := experiment.OpenLedger(path, opt)
	if err != nil {
		return err
	}
	defer led.Close()
	reps := []experiment.RepRecord{{Seed: 1, Values: []uint64{1, 2}}, {Seed: 2, Values: []uint64{3, 4}}}
	sizes := []int{100, 1000}
	if p.smoke {
		sizes = []int{10, 30}
	}
	names := []string{"experiment.ledger_put_us_at_100", "experiment.ledger_put_us_at_1000"}
	const sample = 20
	held := 0
	for k, size := range sizes {
		for ; held < size; held++ {
			if err := led.Put(fmt.Sprintf("probe/%d", held), reps); err != nil {
				return err
			}
		}
		var putUs []float64
		for i := 0; i < sample; i++ {
			t0 := time.Now()
			if err := led.Put(fmt.Sprintf("probe/%d", held), reps); err != nil {
				return err
			}
			putUs = append(putUs, us(time.Since(t0)))
			held++
		}
		rep.set(names[k], median(putUs), "us", fmt.Sprintf("Ledger.Put with %d points held, median of %d", size, sample))
	}
	return nil
}

func probeServeParse(p params, rep *report) error {
	n := p.scale(5000)
	body := runBody(baseSeed(p.seed) + 1)
	r, err := probe(p, func() (probeRun, error) {
		return probeRun{units: n, run: func() error {
			for i := 0; i < n; i++ {
				req, sf, err := serve.ParseRunRequest(body)
				if err != nil {
					return err
				}
				if len(serve.RunFingerprint(sf, req.Replications)) != 64 {
					return fmt.Errorf("fingerprint is not a sha256 hex digest")
				}
			}
			return nil
		}}, nil
	})
	if err != nil {
		return err
	}
	rep.set("serve.parse_us", r.ns/1000, "us", "ParseRunRequest + RunFingerprint of the mix's run body")
	return nil
}
