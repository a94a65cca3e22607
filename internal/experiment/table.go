package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"wtcp/internal/stats"
)

// Column is one column of a study's table, declared once for both of its
// renderings: Head is the markdown header and CSV the CSV name, and MD
// and CSVFormat are the fmt verbs the cell prints with in each ("" is
// %v). Value is the row's key or scalar; Sample, set instead, its
// replicated measurement, which prints as mean±relative stddev in
// markdown and as CSV_mean,CSV_stddev in CSV. A duration is written in
// seconds in CSV; a nil value or sample is a missing cell.
type Column[P any] struct {
	Head, CSV     string
	MD, CSVFormat string
	Value         func(P) any
	Sample        func(P) *stats.Sample
}

// Table is a study's column list, the one description CSV (wtcp figures
// -csv and -out) and Markdown (wtcp figures and wtcp report) render:
// Keys name a row and Values are what was measured there. Its rows are
// the grid the keys span, every combination of the values each key takes
// over the points, first seen first. A study's result keeps a quarantined
// point with its keys and nil samples, so the point keeps its row even
// when every point of one key value was quarantined: markdown prints its
// missing cells as "-", and CSV, which carries only complete rows, leaves
// it out.
type Table[P any] struct {
	Keys, Values []Column[P]
	Pivot        *Pivot
}

// Pivot lays a table's markdown out as Figures 7-9 plot it, naming
// columns by Head: a row per combination of the Down keys, a column per
// value of the Across key with the Cell column in it, and each Top
// column a leading row holding its value at each Across value (tput_th).
type Pivot struct {
	Down         []string
	Across, Cell string
	Top          []string
}

// CSV renders points as CSV.
func (t Table[P]) CSV(points []P) string {
	cols := slices.Concat(t.Keys, t.Values)
	var head []string
	for _, c := range cols {
		names := []string{c.CSV}
		if c.Sample != nil {
			names = []string{c.CSV + "_mean", c.CSV + "_stddev"}
		}
		head = append(head, names...)
	}
	var b strings.Builder
	b.WriteString(strings.Join(head, ",") + "\n")
	for _, keys := range grid(points, t.Keys) {
		p := find(points, t.Keys, keys)
		row := slices.Clone(keys)
		for _, c := range t.Values {
			row = append(row, c.of(p))
		}
		if slices.Contains(row, nil) {
			continue
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = cols[i].csv(v)
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	return b.String()
}

// Markdown renders points as a markdown table: one row per grid row with
// every column, or in t.Pivot's layout.
func (t Table[P]) Markdown(points []P) string {
	down, cells := t.Keys, t.Values
	var across, top []Column[P]
	if pv := t.Pivot; pv != nil {
		down, cells, across, top = t.named(pv.Down...), t.named(pv.Cell), t.named(pv.Across), t.named(pv.Top...)
	}
	columns := grid(points, across) // one empty tuple without a pivot
	head := heads(down)
	if across == nil {
		head = append(head, heads(cells)...)
	} else {
		for _, a := range columns {
			head = append(head, across[0].Head+"="+across[0].markdown(a[0]))
		}
	}
	lines := [][]string{head}
	for _, c := range top { // read off the first point in each column
		line := append([]string{c.Head}, make([]string, len(down)-1)...)
		for _, a := range columns {
			line = append(line, c.markdown(c.of(find(points, across, a))))
		}
		lines = append(lines, line)
	}
	for _, keys := range grid(points, down) {
		var line []string
		for i, v := range keys {
			line = append(line, down[i].markdown(v))
		}
		for _, a := range columns {
			p := find(points, slices.Concat(down, across), slices.Concat(keys, a))
			for _, c := range cells {
				line = append(line, c.markdown(c.of(p)))
			}
		}
		lines = append(lines, line)
	}
	var b strings.Builder
	for i, line := range lines {
		b.WriteString("| " + strings.Join(line, " | ") + " |\n")
		if i == 0 {
			b.WriteString(strings.Repeat("| --- ", len(line)) + "|\n")
		}
	}
	return b.String()
}

// Cell reads the number (a sample's mean) in column head of the row keys
// name, false where Markdown prints "-": a claim read off a table is
// never judged against a zero standing in for a quarantined point.
func (t Table[P]) Cell(points []P, head string, keys ...any) (float64, bool) {
	c := t.named(head)[0]
	switch v := c.of(find(points, t.Keys, keys)).(type) {
	case *stats.Sample:
		return v.Mean(), true
	case float64:
		return v, true
	}
	return 0, false
}

// named returns the columns headed heads; an unknown head panics.
func (t Table[P]) named(heads ...string) []Column[P] {
	cols := slices.Concat(t.Keys, t.Values)
	var out []Column[P]
	for _, h := range heads {
		out = append(out, cols[slices.IndexFunc(cols, func(c Column[P]) bool { return c.Head == h })])
	}
	return out
}

// grid is the product of the distinct values each key column takes over
// points, first seen first: one key tuple per row.
func grid[P any](points []P, keys []Column[P]) [][]any {
	rows := [][]any{nil}
	for _, k := range keys {
		var vals []any
		for _, p := range points {
			if v := k.Value(p); !slices.Contains(vals, v) {
				vals = append(vals, v)
			}
		}
		var next [][]any
		for _, r := range rows {
			for _, v := range vals {
				next = append(next, append(slices.Clip(r), v))
			}
		}
		rows = next
	}
	return rows
}

// find returns the point whose key columns take vals, or nil.
func find[P any](points []P, keys []Column[P], vals []any) *P {
	for i := range points {
		if slices.EqualFunc(keys, vals, func(k Column[P], v any) bool { return k.Value(points[i]) == v }) {
			return &points[i]
		}
	}
	return nil
}

// of is c's cell at p, nil when p or the cell is missing.
func (c Column[P]) of(p *P) any {
	switch {
	case p == nil:
		return nil
	case c.Sample == nil:
		return c.Value(*p)
	}
	if s := c.Sample(*p); s != nil {
		return s
	}
	return nil
}

// markdown prints a cell: a sample as mean±relative stddev, text by its
// first line, a missing cell as "-".
func (c Column[P]) markdown(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case *stats.Sample:
		return fmt.Sprintf(cmp.Or(c.MD, "%v")+"±%.0f%%", v.Mean(), 100*v.RelStdDev())
	case string:
		line, _, _ := strings.Cut(v, "\n")
		return line
	}
	return fmt.Sprintf(cmp.Or(c.MD, "%v"), v)
}

// csv prints a present cell: a sample as its mean and stddev, a duration
// in seconds.
func (c Column[P]) csv(v any) string {
	f := cmp.Or(c.CSVFormat, "%v")
	switch v := v.(type) {
	case *stats.Sample:
		return fmt.Sprintf(f+","+f, v.Mean(), v.StdDev())
	case time.Duration:
		return fmt.Sprintf(f, v.Seconds())
	}
	return fmt.Sprintf(f, v)
}

func heads[P any](cols []Column[P]) []string {
	var out []string
	for _, c := range cols {
		out = append(out, c.Head)
	}
	return out
}

// mean is a sample's mean as a cell, nil when the sample is missing.
func mean(s *stats.Sample) any {
	if s == nil {
		return nil
	}
	return s.Mean()
}
