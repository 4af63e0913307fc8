// Package stats provides the small aggregation and formatting helpers the
// experiment harness uses to print the paper's tables and figure series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile of xs by the nearest-rank method:
// the smallest value with at least p% of the observations at or below it.
// Input need not be sorted (a copy is sorted). Empty input returns 0; a
// single element is every percentile of itself; p is clamped to [0, 100],
// with p = 0 mapping to the minimum and p = 100 to the maximum.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile of sorted, which must already be in
// ascending order; it neither copies nor sorts, so several percentiles of
// one sample cost one sort.
func SortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		cells = cells[:len(t.Headers)]
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: strings pass through, floats
// format with the given precision, ints as integers.
func (t *Table) AddRowf(prec int, cells ...any) {
	out := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			out = append(out, v)
		case float64:
			out = append(out, fmt.Sprintf("%.*f", prec, v))
		case int:
			out = append(out, fmt.Sprintf("%d", v))
		case uint64:
			out = append(out, fmt.Sprintf("%d", v))
		default:
			out = append(out, fmt.Sprint(v))
		}
	}
	t.AddRow(out...)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns row r, column c (empty string out of range).
func (t *Table) Cell(r, c int) string {
	if r < 0 || r >= len(t.rows) || c < 0 || c >= len(t.Headers) {
		return ""
	}
	return t.rows[r][c]
}

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no notes).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
