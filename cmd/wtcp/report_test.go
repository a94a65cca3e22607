package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportQuick(t *testing.T) {
	// One -checkpoint path serves every study of the report, whatever
	// options each runs under.
	ck := filepath.Join(t.TempDir(), "report.json")
	var md strings.Builder
	if code := run([]string{"report", "-quick", "-reps", "2", "-checkpoint", ck}, &md, io.Discard); code != 0 {
		t.Errorf("exit code = %d, want 0 (all claims reproduced)", code)
	}
	if !strings.Contains(md.String(), "# Replication report") {
		t.Error("report header missing")
	}
	if !strings.Contains(md.String(), "All checked claims reproduced") {
		t.Error("all-clear marker missing")
	}
}

func TestReportRejectsBadFlags(t *testing.T) {
	if _, _, err := wtcp("report", "-nonsense"); err == nil {
		t.Error("unknown flag accepted")
	}
}
