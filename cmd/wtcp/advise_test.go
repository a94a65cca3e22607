package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func TestAdvisorTable(t *testing.T) {
	out, _, err := wtcp("advise", "-reps", "1")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "| mean bad period | good packet size | throughput (Kbps) |") {
		t.Errorf("table missing:\n%s", out)
	}
}

func TestAdvisorQueryAndCSV(t *testing.T) {
	out, _, err := wtcp("advise", "-reps", "1", "-csv", "-query", "2s")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "mean_bad_sec,packet_size_bytes,throughput_kbps") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "recommended packet size for 2s fades") {
		t.Errorf("query answer missing:\n%s", out)
	}
}

func TestAdvisorRejectsBadFlags(t *testing.T) {
	if _, _, err := wtcp("advise", "-bogus"); err == nil {
		t.Error("unknown flag accepted")
	}
}

// FuzzAdviseReply fuzzes wtcp advise -server's reading of a wtcpd
// reply: it never panics, a non-200 status is an error naming it, and a
// 200 body decodes into a recommendation with a calibration table or is
// refused with "decode wtcpd response". The seeds `null` and `{}` are
// 200 bodies that, before the table check, decoded into an empty
// recommendation ("0 bytes"), which no wtcpd success carries.
func FuzzAdviseReply(f *testing.F) {
	f.Add(200, []byte(`{"fingerprint":"ab","mean_bad":"4s","recommended_packet_size_bytes":512,"throughput_kbps":9.5,`+
		`"table":[{"packet_size_bytes":256,"throughput_kbps":8},{"packet_size_bytes":512,"throughput_kbps":9.5}],"quarantined":["1536 bytes: resource-exhausted (budget)"]}`))
	f.Add(200, []byte(`null`))
	f.Add(200, []byte(`{}`))
	f.Add(200, []byte(`{"table":[{"packet_size_bytes":1e400}]}`))
	f.Add(200, []byte(`{"table":[]} trailing`))
	f.Add(400, []byte(`{"error":"advise needs ?bad= (the observed mean bad-period, e.g. ?bad=4s)"}`))
	f.Add(422, []byte(`{"error":"every calibration point quarantined; no recommendation is defensible","fingerprint":"ab"}`))
	f.Add(429, []byte(`{"error":""}`))
	f.Add(503, []byte(`<html>draining</html>`))
	f.Add(0, []byte(nil))
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		adv, err := adviseReply(status, body)
		switch {
		case status != http.StatusOK:
			if err == nil || !strings.HasSuffix(strings.TrimSuffix(err.Error(), ")"), fmt.Sprintf("HTTP %d", status)) {
				t.Fatalf("HTTP %d reply: error %v does not name the status", status, err)
			}
		case err != nil:
			if !strings.HasPrefix(err.Error(), "decode wtcpd response") {
				t.Fatalf("200 reply refused without naming the decode: %v", err)
			}
		case len(adv.Table) == 0:
			t.Fatalf("200 reply %q accepted without a calibration table", body)
		}
	})
}
