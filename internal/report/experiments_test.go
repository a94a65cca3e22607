package report

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	numberRE     = regexp.MustCompile(`\d+(?:\.\d+)?`)
	codeSpanRE   = regexp.MustCompile("`[^`]*`")
	reportLinkRE = regexp.MustCompile(`REPLICATION\.md#([^)\s]+)`)
)

// TestExperimentsQuotesOnlyReportNumbers: EXPERIMENTS.md measures nothing
// itself. Every number in one of its "measured" columns must be printed,
// as written, somewhere in REPLICATION.md, so a change that moves a
// reported number cannot leave a stale copy behind; and every link into
// REPLICATION.md must name one of its headings. Code spans are commands,
// not quotes, and are skipped.
func TestExperimentsQuotesOnlyReportNumbers(t *testing.T) {
	exp, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile("../../REPLICATION.md")
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	anchors := map[string]bool{}
	for _, line := range strings.Split(string(rep), "\n") {
		for _, n := range numberRE.FindAllString(line, -1) {
			printed[n] = true
		}
		if strings.HasPrefix(line, "#") {
			anchors[headingAnchor(line)] = true
		}
	}

	quoted := 0
	measured := -1 // the "measured" column of the table being read, if any
	for i, line := range strings.Split(string(exp), "\n") {
		for _, m := range reportLinkRE.FindAllStringSubmatch(line, -1) {
			if !anchors[m[1]] {
				t.Errorf("EXPERIMENTS.md:%d links REPLICATION.md#%s, which is no heading there", i+1, m[1])
			}
		}
		if !strings.HasPrefix(line, "|") {
			measured = -1
			continue
		}
		if strings.HasPrefix(line, "| ---") {
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "|"), "|"), "|")
		if measured < 0 {
			// A table's first row is its header.
			measured = len(cells) // past every cell: this table has no such column
			for c, cell := range cells {
				if strings.EqualFold(strings.TrimSpace(cell), "measured") {
					measured = c
				}
			}
			continue
		}
		if measured >= len(cells) {
			continue
		}
		for _, n := range numberRE.FindAllString(codeSpanRE.ReplaceAllString(cells[measured], ""), -1) {
			quoted++
			if !printed[n] {
				t.Errorf("EXPERIMENTS.md:%d quotes %s in a measured column, which REPLICATION.md does not print", i+1, n)
			}
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md has no measured column with a number in it")
	}
}

// headingAnchor is the fragment a markdown renderer gives a heading line:
// lower case, punctuation dropped, spaces turned into hyphens.
func headingAnchor(line string) string {
	text := strings.ToLower(strings.TrimSpace(strings.TrimLeft(line, "#")))
	var b strings.Builder
	for _, r := range text {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}
