package main

import (
	"encoding/json"
	"fmt"

	"wtcp/internal/core"
	"wtcp/internal/stats"
)

// jsonResult is the machine-readable output of wtcp-sim -json.
type jsonResult struct {
	Scheme          string  `json:"scheme"`
	PacketSizeBytes int64   `json:"packet_size_bytes"`
	TransferBytes   int64   `json:"transfer_bytes"`
	MeanGoodSec     float64 `json:"mean_good_sec"`
	MeanBadSec      float64 `json:"mean_bad_sec"`
	TputThKbps      float64 `json:"tput_th_kbps"`
	Replications    int     `json:"replications"`

	ThroughputKbpsMean   float64 `json:"throughput_kbps_mean"`
	ThroughputKbpsStddev float64 `json:"throughput_kbps_stddev"`
	GoodputMean          float64 `json:"goodput_mean"`
	RetransKBMean        float64 `json:"retrans_kb_mean"`
	TimeoutsMean         float64 `json:"timeouts_mean"`

	LastReplication *jsonComponents `json:"last_replication,omitempty"`
}

// jsonComponents carries the per-component counters of the final
// replication for deeper post-processing.
type jsonComponents struct {
	SenderSegments   uint64 `json:"sender_segments"`
	SenderRetrans    uint64 `json:"sender_retrans_segments"`
	FastRetransmits  uint64 `json:"fast_retransmits"`
	EBSNResets       uint64 `json:"ebsn_resets"`
	ARQAttempts      uint64 `json:"arq_attempts"`
	ARQDiscards      uint64 `json:"arq_discards"`
	DownlinkCorrupt  uint64 `json:"downlink_corrupted"`
	UplinkCorrupt    uint64 `json:"uplink_corrupted"`
	SinkSegments     uint64 `json:"sink_segments"`
	SinkDuplicates   uint64 `json:"sink_duplicates"`
	MobileLinkAcks   uint64 `json:"mobile_link_acks"`
	MobileGapFlushes uint64 `json:"mobile_gap_flushes"`
	// Occupancy high-water marks of the per-packet working sets.
	BSHeldPeak         int `json:"bs_held_peak"`
	SnoopCachePeak     int `json:"snoop_cache_peak"`
	ReorderPeak        int `json:"mobile_reorder_peak"`
	ReassemblyOpenPeak int `json:"mobile_reassembly_open_peak"`
	SinkBufferedPeak   int `json:"sink_buffered_peak"`
}

// emitJSON prints the aggregated run as one JSON document.
func emitJSON(cfg core.Config, tput, goodput, retrans, timeouts *stats.Sample, last *core.Result) error {
	out := jsonResult{
		Scheme:               cfg.Scheme.String(),
		PacketSizeBytes:      int64(cfg.PacketSize),
		TransferBytes:        int64(cfg.TransferSize),
		MeanGoodSec:          cfg.Channel.MeanGood.Seconds(),
		MeanBadSec:           cfg.Channel.MeanBad.Seconds(),
		TputThKbps:           cfg.TheoreticalMaxKbps(),
		Replications:         tput.N(),
		ThroughputKbpsMean:   tput.Mean(),
		ThroughputKbpsStddev: tput.StdDev(),
		GoodputMean:          goodput.Mean(),
		RetransKBMean:        retrans.Mean(),
		TimeoutsMean:         timeouts.Mean(),
	}
	if last != nil {
		out.LastReplication = &jsonComponents{
			SenderSegments:   last.Sender.SegmentsSent,
			SenderRetrans:    last.Sender.RetransSegments,
			FastRetransmits:  last.Sender.FastRetransmits,
			EBSNResets:       last.Sender.EBSNResets,
			ARQAttempts:      last.BS.ARQAttempts,
			ARQDiscards:      last.BS.ARQDiscards,
			DownlinkCorrupt:  last.WirelessDown.Corrupted,
			UplinkCorrupt:    last.WirelessUp.Corrupted,
			SinkSegments:     last.Sink.SegmentsReceived,
			SinkDuplicates:   last.Sink.DuplicateSegments,
			MobileLinkAcks:   last.Mobile.LinkAcksSent,
			MobileGapFlushes: last.Mobile.GapFlushes,

			BSHeldPeak:         last.BS.HeldPeak,
			SnoopCachePeak:     last.BS.SnoopCachePeak,
			ReorderPeak:        last.Mobile.ReorderPeak,
			ReassemblyOpenPeak: last.Mobile.ReassemblyOpenPeak,
			SinkBufferedPeak:   last.Sink.BufferedPeak,
		}
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}
