package wtcp_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefilePinsNameLiveTests: every name in a Makefile `-run '…'`
// list must be a test function that exists. `go test -run` treats a name
// that matches nothing as a pass, so a pin naming a deleted or renamed
// test would silently stop gating anything.
func TestMakefilePinsNameLiveTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	lists := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(mk, -1)
	if len(lists) == 0 {
		t.Fatal("no -run lists found in the Makefile")
	}
	for _, m := range lists {
		for _, name := range strings.Split(string(m[1]), "|") {
			// A top-level name, anchors and subtest selectors stripped;
			// '^$$' (Make's escape of ^$) selects no test on purpose.
			name = strings.Trim(name, "^$")
			name, _, _ = strings.Cut(name, "/")
			if name != "" && !defined[name] {
				t.Errorf("Makefile pins -run %q, but no _test.go file defines func %s", m[1], name)
			}
		}
	}
}
