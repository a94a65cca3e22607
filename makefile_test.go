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
// test would silently stop gating anything. The same holds for fuzzing:
// `go test -fuzz=FuzzNoSuch` warns "no fuzz tests to fuzz" and exits 0,
// so every FUZZ_TARGETS entry must name a fuzz function of its package,
// and every fuzz function in the tree must be listed.
func TestMakefilePinsNameLiveTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined, fuzzers := testFuncs(t)

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

	block := regexp.MustCompile(`(?m)^FUZZ_TARGETS =((?:.*\\\n)*.*)$`).FindSubmatch(mk)
	if block == nil {
		t.Fatal("no FUZZ_TARGETS list found in the Makefile")
	}
	listed := map[string]bool{}
	for _, entry := range strings.Fields(strings.ReplaceAll(string(block[1]), "\\", " ")) {
		listed[entry] = true
		if !fuzzers[entry] {
			t.Errorf("Makefile FUZZ_TARGETS lists %s, but no _test.go file in that package defines that fuzz function", entry)
		}
	}
	for entry := range fuzzers {
		if !listed[entry] {
			t.Errorf("%s is not in the Makefile's FUZZ_TARGETS", entry)
		}
	}
}

// TestDocsCiteLiveFunctions: every Test, Benchmark, Example or Fuzz name
// that README.md, DESIGN.md or EXPERIMENTS.md cites, or that a committed
// BENCH_*.json file records, names a function some _test.go file
// defines, so a claim cannot point at evidence that was deleted. A name
// anchored by "^" (a filter: ^BenchmarkSim) or followed by "*"
// (BenchmarkSim*) or by a "<placeholder>" (Example_<name>) is a prefix
// some defined name must start with.
func TestDocsCiteLiveFunctions(t *testing.T) {
	defined, _ := testFuncs(t)
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	baselines, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(baselines) == 0 {
		t.Fatalf("no BENCH_*.json baselines found (%v)", err)
	}
	citeRE := regexp.MustCompile(`(\^?)\b((?:Test|Benchmark|Example|Fuzz)[A-Z_]\w*)(\*|<\w+>)?`)
	for _, name := range append(files, baselines...) {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range citeRE.FindAllStringSubmatch(line, -1) {
				cited, live := m[2], defined[m[2]]
				if m[1] != "" || m[3] != "" { // a prefix pattern
					for fn := range defined {
						live = live || strings.HasPrefix(fn, cited)
					}
				}
				if !live {
					t.Errorf("%s:%d cites %s, but no _test.go file defines such a function", name, i+1, m[0])
				}
			}
		}
	}
}

// testFuncs walks the tree's _test.go files (dot directories skipped) and
// returns the name of every Test, Benchmark, Example and Fuzz function,
// and each fuzz function outside testdata as "./dir:FuzzName".
func testFuncs(t *testing.T) (defined, fuzzers map[string]bool) {
	t.Helper()
	defined, fuzzers = map[string]bool{}, map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			if name := string(m[1]); strings.HasPrefix(name, "Fuzz") && !strings.Contains(path, "testdata") {
				fuzzers["./"+filepath.ToSlash(filepath.Dir(path))+":"+name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined, fuzzers
}
