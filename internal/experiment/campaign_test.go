package experiment

import (
	"strings"
	"testing"
)

// TestCampaignRefusesRepeats: a repeated sweep, packet size or bad
// period is refused by field, index and value, bad periods compared as
// durations.
func TestCampaignRefusesRepeats(t *testing.T) {
	for _, tc := range []struct{ manifest, want string }{
		{`{"sweeps":["fig7","fig8","fig7"]}`, "sweeps[2] repeats fig7 (sweeps[0])"},
		{`{"sweeps":["fig7"],"packet_sizes":[512,1024,512]}`, "packet_sizes[2] repeats 512 (packet_sizes[0])"},
		{`{"sweeps":["fig7"],"bad_periods":["1s","1000ms"]}`, "bad_periods[1] repeats 1s (bad_periods[0])"},
	} {
		_, err := ParseCampaign([]byte(tc.manifest))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.manifest, err, tc.want)
		}
	}
	if _, err := ParseCampaign([]byte(`{"sweeps":["fig7","fig8"],"packet_sizes":[512,1024],"bad_periods":["1s","1500ms"]}`)); err != nil {
		t.Errorf("distinct values refused: %v", err)
	}
}
