package main

import (
	"testing"

	"wtcp/internal/lint/load"
)

func findings(t *testing.T, root string, allow map[string]string) []string {
	t.Helper()
	m, err := load.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range check(m, allow) {
		got = append(got, f.kind+" "+f.name)
	}
	return got
}

func same(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckReportsUnreached: an unreachable func (and the helper only it
// calls), an unreachable type with its methods, a const only a test
// uses, and a method of a reached type that only a test calls; an allow
// entry exempts its declaration and what that reaches, and one that
// exempts nothing is reported.
func TestCheckReportsUnreached(t *testing.T) {
	want := []string{
		"func a.Unreached", "func a.helper",
		"type a.Dead", "method a.Dead.Get", "method a.Dead.Set",
		"const a.OnlyTest",
		"method a.Counter.Reset",
	}
	if got := findings(t, "testdata/pos", nil); !same(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
	allow := map[string]string{"internal/a.Unreached": "kept", "internal/nosuch": "stale"}
	want = append([]string{"entry internal/nosuch"}, want[2:]...)
	if got := findings(t, "testdata/pos", allow); !same(got, want) {
		t.Errorf("with allow entries: findings = %q, want %q", got, want)
	}
}

// TestCheckLetsReachedThrough: a method called only through an
// interface of the module, a String called only by fmt, an Unwrap
// called only by errors.Is, a declaration reached only from init, and a
// declaration in a file build tags exclude are not reported.
func TestCheckLetsReachedThrough(t *testing.T) {
	if got := findings(t, "testdata/neg", nil); len(got) != 0 {
		t.Errorf("findings = %q, want none", got)
	}
}
