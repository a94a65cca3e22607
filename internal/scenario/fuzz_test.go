package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzScenario throws arbitrary bytes at the scenario parser. The
// contract under fuzzing: ParseFile and Build never panic, and any
// scenario they accept is fully runnable (the returned config passes
// validation, which Build already enforces — so acceptance with a
// broken config is a bug, not a user error) and spelled canonically
// the same way again (Canonical().Build() equals Build(), Canonical is
// idempotent). wtcpd's /v1/run fuzzer builds on the same corpus (see
// internal/serve).
func FuzzScenario(f *testing.F) {
	for _, s := range FuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := build(string(data))
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Errorf("Build accepted a config that fails validation: %v\ninput: %s", verr, data)
		}
		sf, _ := ParseFile(data)
		c := sf.Canonical()
		if got, err := c.Build(); err != nil || !reflect.DeepEqual(got, cfg) {
			t.Errorf("canonical spelling %+v builds %+v (%v), want %+v\ninput: %s", c, got, err, cfg, data)
		}
		if again := c.Canonical(); !reflect.DeepEqual(again, c) {
			t.Errorf("Canonical is not idempotent: %+v, then %+v\ninput: %s", c, again, data)
		}
	})
}

// TestFuzzSeedsClassify pins the fuzz seed corpus' accept/reject split
// so a parser regression shows up as a plain test failure even when the
// fuzzer is not run.
func TestFuzzSeedsClassify(t *testing.T) {
	accept := []string{
		`{}`,
		`{"preset":"wan","scheme":"ebsn","packet_size_bytes":1536,"mean_bad":"4s","transfer_kb":100,"seed":7}`,
		`{"scheme":"ebsn","checks":true,"chaos":{"crashes":[{"at":"20s","downtime":"2s"}]}}`,
		`{"chaos":null}`,
	}
	reject := []string{
		`{"packet_size_bytes":10}`,
		`{"chaos":{"blackouts":[{"link":"nope","at":"1s","length":"1s"}]}}`,
		`{"bogus":1}`,
		`{`,
	}
	for _, s := range accept {
		if _, err := build(s); err != nil {
			t.Errorf("valid scenario rejected: %v\ninput: %s", err, s)
		}
	}
	for _, s := range reject {
		if _, err := build(s); err == nil {
			t.Errorf("invalid scenario accepted: %s", s)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("error leaks a panic: %v", err)
		}
	}
}
