// Package report renders experiment results as plain-text tables and
// series, the forms cmd/mcpbench prints so each paper table and figure can
// be regenerated from its output.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates an empty table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: fixed 2-3 significant decimals
// for human-scale magnitudes, scientific elsewhere. NaN — the marker for
// "no observations" throughout the metrics and report layers — renders
// as "n/a" rather than a misleading 0.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 10000 || av < 0.001:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table. Columns are padded to their widest cell.
func (t *Table) Render(w io.Writer) error {
	ncol := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(row []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Series is a titled (x, y) sequence rendered as rows with a proportional
// bar — the text stand-in for a paper figure.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
	// BarWidth is the width of the widest bar (default 40).
	BarWidth int
}

// NewSeries creates an empty series.
func NewSeries(title, xlabel, ylabel string) *Series {
	return &Series{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Render writes the series as "x  y  bar" rows.
func (s *Series) Render(w io.Writer) error {
	bw := s.BarWidth
	if bw <= 0 {
		bw = 40
	}
	maxY := 0.0
	for _, y := range s.Y {
		if y > maxY {
			maxY = y
		}
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	fmt.Fprintf(&b, "%16s  %12s\n", s.XLabel, s.YLabel)
	for i := range s.X {
		bar := ""
		if maxY > 0 {
			n := int(s.Y[i] / maxY * float64(bw))
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%16s  %12s  %s\n", FormatFloat(s.X[i]), FormatFloat(s.Y[i]), bar)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the series to a string.
func (s *Series) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}
