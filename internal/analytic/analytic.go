// Package analytic provides the closed-form, first-order performance
// models the simulation is validated against:
//
//   - the header-efficiency ceiling that shapes the left edge of
//     Figure 7 (a 128-byte packet spends 31% of the wire on headers);
//   - the payload-counted ceiling an ideal EBSN run approaches;
//   - the chance that a transmission is hit by the start of a fade.
//
// The paper's tput_th (§5) is core.Config.TheoreticalMaxKbps, and the
// good-time fraction it scales by is errmodel.Config.GoodFraction.
//
// None of these replace simulation — they bound it. The test suite keeps
// the simulator honest by requiring agreement within coarse bands.
package analytic

import (
	"math"
	"time"

	"wtcp/internal/errmodel"
	"wtcp/internal/packet"
	"wtcp/internal/units"
)

// HeaderEfficiency is the payload fraction of a packet: (size-40)/size.
func HeaderEfficiency(packetSize units.ByteSize) float64 {
	if packetSize <= packet.HeaderSize {
		return 0
	}
	return float64(packetSize-packet.HeaderSize) / float64(packetSize)
}

// PayloadCeilingKbps is the error-free user-payload throughput of a link
// with the given effective rate carrying back-to-back packets of the
// given size.
func PayloadCeilingKbps(effectiveRate units.BitRate, packetSize units.ByteSize) float64 {
	return float64(effectiveRate) / 1000 * HeaderEfficiency(packetSize)
}

// EBSNCeilingKbps is the payload-counted ceiling an ideal EBSN run
// approaches: the payload ceiling scaled by the channel's good fraction
// (local recovery hides fades; the only loss is the fade time itself).
func EBSNCeilingKbps(effectiveRate units.BitRate, packetSize units.ByteSize, channel errmodel.Config) float64 {
	return PayloadCeilingKbps(effectiveRate, packetSize) * channel.GoodFraction()
}

// FadeHitProbability is the chance that a transmission occupying the
// medium for airTime overlaps the start of a fade, with exponential good
// periods of the given mean: 1 - exp(-airTime/meanGood).
func FadeHitProbability(airTime, meanGood time.Duration) float64 {
	if meanGood <= 0 {
		return 1
	}
	return -math.Expm1(-float64(airTime) / float64(meanGood))
}
