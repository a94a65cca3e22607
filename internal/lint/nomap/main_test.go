package main

import (
	"strings"
	"testing"

	"wtcp/internal/lint/load"
)

func TestCheckReportsFieldsAndRanges(t *testing.T) {
	m, err := load.Load("testdata/bad")
	if err != nil {
		t.Fatal(err)
	}
	got, err := check(m, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bad.go:8:2: map-typed field", "bad.go:9:2: map-typed field", "bad.go:16:2: range over a map"}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}
	for i := range want {
		if !strings.HasSuffix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want suffix %q", i, got[i], want[i])
		}
	}
}
