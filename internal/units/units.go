// Package units provides byte-size and bit-rate types with the arithmetic
// the link models need: serialization (transmission) time of a payload at a
// rate, and rate/size formatting for reports.
//
// The paper quotes link speeds in kbps/Mbps and sizes in bytes/Kbytes;
// these types keep those conversions in one tested place.
package units

import (
	"math"
	"strconv"
	"time"
)

// ByteSize is a data size in bytes.
type ByteSize int64

// Common sizes. KB here follows the paper's usage (1 Kbyte = 1024 bytes for
// windows and transfer sizes, as in BSD TCP).
const (
	KB ByteSize = 1024
	MB ByteSize = 1024 * KB
)

// Bits reports the size in bits.
func (b ByteSize) Bits() int64 { return int64(b) * 8 }

// String renders the size with a binary-unit suffix.
func (b ByteSize) String() string {
	switch {
	case b >= MB && b%MB == 0:
		return strconv.FormatInt(int64(b/MB), 10) + "MB"
	case b >= KB && b%KB == 0:
		return strconv.FormatInt(int64(b/KB), 10) + "KB"
	default:
		return strconv.FormatInt(int64(b), 10) + "B"
	}
}

// BitRate is a data rate in bits per second.
type BitRate int64

// Common rates.
const (
	BitPerSecond BitRate = 1
	Kbps         BitRate = 1000
	Mbps         BitRate = 1000 * Kbps
)

// String renders the rate with a decimal-unit suffix.
func (r BitRate) String() string {
	switch {
	case r >= Mbps && r%Mbps == 0:
		return strconv.FormatInt(int64(r/Mbps), 10) + "Mbps"
	case r >= Kbps:
		return trimFloat(float64(r)/float64(Kbps)) + "Kbps"
	default:
		return strconv.FormatInt(int64(r), 10) + "bps"
	}
}

func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 3, 64)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// TransmissionTime reports how long serializing size onto a link of rate r
// takes. A non-positive rate yields zero (treated as infinitely fast),
// which keeps degenerate test configurations safe.
func TransmissionTime(size ByteSize, r BitRate) time.Duration {
	if r <= 0 || size <= 0 {
		return 0
	}
	sec := float64(size.Bits()) / float64(r)
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// ThroughputKbps reports the rate achieved moving size in elapsed time,
// in kilobits/second, the unit of the paper's WAN figures. A non-positive
// elapsed time or size yields zero.
func ThroughputKbps(size ByteSize, elapsed time.Duration) float64 {
	if elapsed <= 0 || size <= 0 {
		return 0
	}
	return float64(size.Bits()) / elapsed.Seconds() / 1000
}

// ThroughputMbps is ThroughputKbps in megabits/second,
// the unit of the paper's LAN figures.
func ThroughputMbps(size ByteSize, elapsed time.Duration) float64 {
	return ThroughputKbps(size, elapsed) / 1000
}
