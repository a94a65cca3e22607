package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"wtcp/internal/units"
)

func TestCalibrateAdvisor(t *testing.T) {
	a, err := CalibrateAdvisor(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	table := a.Table()
	if len(table) != 2 {
		t.Fatalf("entries = %d, want one per bad period", len(table))
	}
	if table[0].MeanBad != time.Second || table[1].MeanBad != 4*time.Second {
		t.Errorf("entries unsorted: %+v", table)
	}
	for _, e := range table {
		if e.PacketSize == 0 || e.ThroughputKbps <= 0 {
			t.Errorf("degenerate entry %+v", e)
		}
	}
}

// TestAdvisorTableRenders pins both renderings of the advisory table: the
// CSV bytes wtcp advise -csv has always printed, and the markdown rows.
func TestAdvisorTableRenders(t *testing.T) {
	entries := []AdvisorEntry{
		{MeanBad: time.Second, PacketSize: 1280, ThroughputKbps: 8.886},
		{MeanBad: 4 * time.Second, PacketSize: 768, ThroughputKbps: 5.951},
	}
	if got, want := AdvisorTable.CSV(entries), "mean_bad_sec,packet_size_bytes,throughput_kbps\n1.0,1280,8.89\n4.0,768,5.95\n"; got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
	want := "| mean bad period | good packet size | throughput (Kbps) |\n| --- | --- | --- |\n| 1s | 1280B | 8.89 |\n| 4s | 768B | 5.95 |\n"
	if got := AdvisorTable.Markdown(entries); got != want {
		t.Errorf("Markdown:\n%s\nwant:\n%s", got, want)
	}
}

func TestAdvisorRecommendNearest(t *testing.T) {
	a := &Advisor{entries: []AdvisorEntry{
		{MeanBad: 1 * time.Second, PacketSize: 512},
		{MeanBad: 4 * time.Second, PacketSize: 384},
	}}
	tests := []struct {
		bad  time.Duration
		want units.ByteSize
	}{
		{1 * time.Second, 512},
		{1200 * time.Millisecond, 512},
		{4 * time.Second, 384},
		{10 * time.Second, 384},
		{2600 * time.Millisecond, 384}, // nearer to 4s than 1s
		{2400 * time.Millisecond, 512},
	}
	for _, tt := range tests {
		if got := a.Recommend(tt.bad); got != tt.want {
			t.Errorf("Recommend(%v) = %v, want %v", tt.bad, got, tt.want)
		}
	}
}

// TestAdvisorRejectsEmpty: a single calibration point is enough, and a
// calibration sweep whose every point is quarantined yields no table and
// says so.
func TestAdvisorRejectsEmpty(t *testing.T) {
	if _, err := CalibrateAdvisor(context.Background(), Options{Replications: 1, PacketSizes: []units.ByteSize{512}, BadPeriods: []time.Duration{time.Second}, Transfer: 10 * units.KB}); err != nil {
		t.Errorf("single-point calibration failed: %v", err)
	}
	exhaustRuns(t, nil)
	opt := settleOpts()
	opt.PacketSizes, opt.BadPeriods = []units.ByteSize{512}, []time.Duration{time.Second}
	opt.Health = NewHealth()
	if _, err := CalibrateAdvisor(context.Background(), opt); err == nil || !strings.Contains(err.Error(), "empty calibration sweep") {
		t.Errorf("calibration with every point quarantined: err %v, want the empty sweep refused", err)
	}
}

func TestAdvisorTableIsCopy(t *testing.T) {
	a := &Advisor{entries: []AdvisorEntry{{MeanBad: time.Second, PacketSize: 512}}}
	tbl := a.Table()
	tbl[0].PacketSize = 9999
	if a.Recommend(time.Second) != 512 {
		t.Error("Table exposed internal storage")
	}
}
