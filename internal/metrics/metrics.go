// Package metrics renders the evaluation artifacts: aligned text
// tables for the paper's Tables 1-5, ASCII charts for its figures, and
// CSV export for external plotting. All benches and commands share
// these renderers so every reproduction prints comparable output.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// MiB formats bytes as mebibytes with the paper's two-decimal style.
func MiB(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }

// GiB formats bytes as gibibytes.
func GiB(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<30)) }

// Table is a simple aligned-column text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row; missing cells render empty.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Header}, t.Rows...)
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named line of a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart renders series as an ASCII scatter plot of the given text
// dimensions — the textual stand-in for the paper's figures.
func Chart(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX, minY, maxY := 0.0, 1.0, 0.0, 1.0
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				minX, maxX, minY, maxY = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			minX, maxX = min(minX, s.X[i]), max(maxX, s.X[i])
			minY, maxY = min(minY, s.Y[i]), max(maxY, s.Y[i])
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@%&"
	for si, s := range series {
		m := marks[si%len(marks)]
		for i := range s.X {
			x := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			y := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - y
			grid[row][x] = m
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "y: %.6g .. %.6g\n", minY, maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", string(row))
	}
	fmt.Fprintf(&b, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "x: %.6g .. %.6g\n", minX, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}
