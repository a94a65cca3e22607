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
// uses, a method of a reached type that only a test calls, a field main
// reads that only a test writes, and fields only their own defaults
// write (under `<= 0` and `len(x.F) == 0`); an allow entry exempts its
// declaration and what that reaches, or its field, and one that exempts
// nothing is reported, a field entry too.
func TestCheckReportsUnreached(t *testing.T) {
	want := []string{
		"func a.Unreached", "func a.helper",
		"type a.Dead", "method a.Dead.Get", "method a.Dead.Set",
		"const a.OnlyTest",
		"method a.Counter.Reset",
		"field a.Knobs.Limit", "field a.Knobs.Depth", "field a.Knobs.Names",
	}
	if got := findings(t, "testdata/pos", nil); !same(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
	allow := map[string]string{
		"internal/a.Unreached":   "kept",
		"internal/nosuch":        "stale",
		"internal/a.Knobs.Limit": "kept",
		"internal/a.Knobs.Width": "stale",
	}
	want = []string{
		"entry internal/a.Knobs.Width", "entry internal/nosuch",
		"type a.Dead", "method a.Dead.Get", "method a.Dead.Set",
		"const a.OnlyTest",
		"method a.Counter.Reset",
		"field a.Knobs.Depth", "field a.Knobs.Names",
	}
	if got := findings(t, "testdata/pos", allow); !same(got, want) {
		t.Errorf("with allow entries: findings = %q, want %q", got, want)
	}
}

// TestCheckLetsReachedThrough: a method called only through an
// interface of the module, a String called only by fmt, an Unwrap
// called only by errors.Is, a declaration reached only from init, a
// declaration in a file build tags exclude, and fields written only
// through &x.F, x.F.G = ..., a positional literal, an elided &T in a
// keyed or positional literal, a json tag, a max-tracking compare
// (`if n > x.F { x.F = n }`), or a literal beside the field's own
// default are not reported.
func TestCheckLetsReachedThrough(t *testing.T) {
	if got := findings(t, "testdata/neg", nil); len(got) != 0 {
		t.Errorf("findings = %q, want none", got)
	}
}
