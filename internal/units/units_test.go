package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestByteSizeBits(t *testing.T) {
	tests := []struct {
		in   ByteSize
		want int64
	}{
		{0, 0},
		{1, 8},
		{128, 1024},
		{KB, 8192},
		{4 * KB, 32768},
	}
	for _, tt := range tests {
		if got := tt.in.Bits(); got != tt.want {
			t.Errorf("(%d).Bits() = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	tests := []struct {
		in   ByteSize
		want string
	}{
		{576, "576B"},
		{KB, "1KB"},
		{4 * KB, "4KB"},
		{100 * KB, "100KB"},
		{4 * MB, "4MB"},
		{1536, "1536B"}, // not a whole KB multiple
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestBitRateString(t *testing.T) {
	tests := []struct {
		in   BitRate
		want string
	}{
		{56 * Kbps, "56Kbps"},
		{19200, "19.2Kbps"},
		{12800, "12.8Kbps"},
		{2 * Mbps, "2Mbps"},
		{10 * Mbps, "10Mbps"},
		{500, "500bps"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	tests := []struct {
		name string
		size ByteSize
		rate BitRate
		want time.Duration
	}{
		{"1KB at 8kbps is ~1.024s", KB, 8 * Kbps, 1024 * time.Millisecond},
		{"576B at 56kbps", 576, 56 * Kbps, time.Duration(math.Round(576 * 8.0 / 56000 * float64(time.Second)))},
		{"zero rate", KB, 0, 0},
		{"zero size", 0, Kbps, 0},
		{"negative size", -5, Kbps, 0},
		{"128B at 19.2kbps", 128, 19200, time.Duration(math.Round(1024.0 / 19200 * float64(time.Second)))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := TransmissionTime(tt.size, tt.rate)
			if diff := got - tt.want; diff > time.Microsecond || diff < -time.Microsecond {
				t.Errorf("TransmissionTime(%v, %v) = %v, want %v", tt.size, tt.rate, got, tt.want)
			}
		})
	}
}

func TestThroughputInvertsTransmissionTime(t *testing.T) {
	f := func(sizeKB uint16, rateKbps uint16) bool {
		size := ByteSize(sizeKB%1024+1) * KB
		rate := BitRate(rateKbps%10000+1) * Kbps
		d := TransmissionTime(size, rate)
		want := float64(rate) / 1000
		// Rounding of the transmission time: allow 0.1% slack.
		diff := (ThroughputKbps(size, d) - want) / want
		return diff < 0.001 && diff > -0.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThroughputEdges(t *testing.T) {
	if ThroughputKbps(KB, 0) != 0 {
		t.Error("zero elapsed should yield 0")
	}
	if ThroughputKbps(0, time.Second) != 0 {
		t.Error("zero size should yield 0")
	}
}

func TestThroughputKbps(t *testing.T) {
	// 100KB in 64s = 819200 bits / 64s = 12.8 kbps.
	got := ThroughputKbps(100*KB, 64*time.Second)
	if got < 12.79 || got > 12.81 {
		t.Errorf("ThroughputKbps = %v, want 12.8", got)
	}
}

func TestThroughputMbps(t *testing.T) {
	// 4MB in 16.777216s = 2 Mbps.
	elapsed := time.Duration(float64(4*MB.Bits()*0) + 16777216*float64(time.Microsecond))
	got := ThroughputMbps(4*MB, elapsed)
	if got < 1.99 || got > 2.01 {
		t.Errorf("ThroughputMbps = %v, want 2", got)
	}
}
