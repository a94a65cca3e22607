package scenario

// FuzzSeeds returns the seed corpus for scenario-parser fuzzing. It is
// shared between this package's FuzzScenario and wtcpd's request-decoder
// fuzzer (internal/serve FuzzRunRequest) so both layers are exercised on
// the same mix of valid, borderline, and malformed documents.
func FuzzSeeds() []string {
	return []string{
		`{}`,
		`{"preset":"wan","scheme":"ebsn","packet_size_bytes":1536,"mean_bad":"4s","transfer_kb":100,"seed":7}`,
		`{"preset":"lan","scheme":"snoop","mean_bad":"800ms","sack":true,"delayed_acks":true}`,
		`{"scheme":"localrecovery","variant":"newreno","window_kb":8,"cross_traffic_pct":30,"ecn":true}`,
		`{"scheme":"sourcequench","notify_every":2,"deterministic":true,"collect_trace":true}`,
		`{"mtu_bytes":-1,"wired_kbps":128,"wireless_kbps":1000,"horizon":"10m"}`,
		`{"checks":true,"stall":"2m","seed":3}`,
		`{"scheme":"ebsn","checks":true,"stall":"off","chaos":{
			"blackouts":[{"link":"wireless-down","at":"5s","length":"3s"}],
			"storms":[{"link":"wired-fwd","at":"10s","length":"2s","loss_prob":0.3}],
			"crashes":[{"at":"20s","downtime":"2s"}],
			"notify":{"loss_prob":0.5,"dup_prob":0.1,"delay_prob":0.2,"delay":"300ms"},
			"packets":[{"link":"wireless-up","corrupt_prob":0.01,"dup_prob":0.01,"reorder_prob":0.02,"reorder_delay":"50ms"}]}}`,
		`{"packet_size_bytes":10}`,
		`{"chaos":{"blackouts":[{"link":"nope","at":"1s","length":"1s"}]}}`,
		`{"chaos":null}`,
		// One run in five spellings: a preset default written out and a
		// chaos plan that injects nothing, as an object, null or empty
		// lists.
		`{"mean_bad":"4s","transfer_kb":20,"seed":1}`,
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"horizon":"4h"}`,
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"chaos":{}}`,
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"chaos":null}`,
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"chaos":{"blackouts":[],"crashes":[]}}`,
		// One blackout in two spellings.
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"chaos":{"blackouts":[{"link":"wireless-down","at":"5s","length":"3s"}]}}`,
		`{"mean_bad":"4s","transfer_kb":20,"seed":1,"chaos":{"blackouts":[{"link":"wireless-down","at":"5000ms","length":"3s"}]}}`,
		`{"bogus":1}`,
		`{`,
	}
}
