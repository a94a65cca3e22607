package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{"first", "second, longer"} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want only the file", len(entries))
	}
}

func TestWriteFailureKeepsOldFileAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	// The target is a non-empty directory, so the rename step fails
	// after the temp file was fully written.
	target := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(target, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed write left %d entries behind, want only the original", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
