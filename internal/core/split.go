package core

import (
	"wtcp/internal/metrics"
	"wtcp/internal/packet"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// Split mode is the split-connection (I-TCP) baseline: the end-to-end
// connection is terminated at the base station and re-originated as an
// independent TCP over the wireless hop. newTopology builds it on the one
// Figure 2 network, with a relay in the base-station agent's place:
//
//	FH  ──wired TCP──▶  relay sink ─┐
//	FH  ◀────acks───────┘           │ (per-connection state!)
//	                                ▼
//	           relay sender ──wireless TCP──▶ MH sink
//
// Two properties the paper criticizes are directly observable in the
// Result: the fixed host's connection completes before the mobile host
// has the data (acknowledgments no longer mean end-to-end delivery), and
// the base station holds per-connection transport state (the relay).
//
// The wireless-side connection uses segments that fit the wireless MTU,
// so no fragmentation occurs on the radio — the I-TCP argument for
// separating the two flow controls.

// relay is split mode's base-station half: the wired connection's sink
// and the wireless connection's sender, whose segments carry mss bytes.
type relay struct {
	sink   *tcp.Sink
	sender *tcp.Sender
	mss    units.ByteSize
}

// splitMSS is the wireless half's segment size: a wired packet, cut down
// to the wireless MTU when fragmentation would otherwise occur.
func (c Config) splitMSS() units.ByteSize {
	size := c.PacketSize
	if c.MTU > 0 && size > c.MTU {
		size = c.MTU
	}
	return size - PaperHeader
}

// receive hands a wired arrival to the relay's sink and offers the
// wireless sender every byte the sink delivered in order.
func (r *relay) receive(p *packet.Packet) {
	before := r.sink.Delivered()
	r.sink.Receive(p)
	if d := r.sink.Delivered() - before; d > 0 {
		r.sender.MakeAvailable(d)
	}
}

// summarizeSplit completes a split run's result. The transfer is done
// when the wireless half is, and the paper's metrics describe data
// arriving at the mobile host, so the wireless half is summarized; the
// two halves' transmissions and timeouts are combined so goodput reflects
// total network effort, against both halves' useful wire bytes.
func (tp *topology) summarizeSplit(res *Result) {
	cfg, ws := res.Config, tp.relay.sender
	res.Completed = ws.Done()
	wsStats := ws.Stats()
	res.SplitWireless = &wsStats
	res.SplitWiredDone = tp.sender.FinishedAt()
	elapsed := ws.FinishedAt()
	if !res.Completed {
		elapsed = tp.sim.Now()
	}
	combined := wsStats
	combined.BytesSent += res.Sender.BytesSent
	combined.RetransBytes += res.Sender.RetransBytes
	combined.Timeouts += res.Sender.Timeouts
	res.Summary = metrics.Summarize(cfg.TransferSize, tp.relay.mss, combined, elapsed)
	useful := metrics.WireBytes(cfg.TransferSize, cfg.MSS()) + metrics.WireBytes(cfg.TransferSize, tp.relay.mss)
	if combined.BytesSent > 0 {
		res.Summary.Goodput = min(1, float64(useful)/float64(combined.BytesSent))
	}
}
