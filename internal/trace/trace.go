// Package trace provides the experiment recording and reporting machinery:
// named time series, tables rendered in the paper's row format, CSV export,
// and minimal ASCII plots for terminal inspection of the figure shapes.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is a named sequence of (x, y) points, e.g. time-to-accuracy or a
// per-round sparsification ratio.
type Series struct {
	// Name labels the series ("fedsu", "apf", ...).
	Name string
	// XLabel and YLabel document the axes for CSV headers.
	XLabel, YLabel string

	X, Y []float64
}

// NewSeries constructs an empty series.
func NewSeries(name, xLabel, yLabel string) *Series {
	return &Series{Name: name, XLabel: xLabel, YLabel: yLabel}
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// LastY returns the final y value (NaN when empty).
func (s *Series) LastY() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[len(s.Y)-1]
}

// WriteCSVMulti writes several series sharing an x axis as one CSV: the
// union of x values with one y column per series (empty cells where a
// series lacks the x).
func WriteCSVMulti(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	cols := make([]string, 0, len(series)+1)
	cols = append(cols, series[0].XLabel)
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range series {
			cell := ""
			for i := range s.X {
				if s.X[i] == x {
					cell = fmt.Sprintf("%g", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table is a simple aligned-text table for paper-style result rows.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable constructs a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// AsciiPlot renders series as a crude terminal plot (rows top-to-bottom =
// descending y) so figure shapes are inspectable without a plotting stack.
func AsciiPlot(w io.Writer, width, height int, series ...*Series) error {
	if width < 8 || height < 4 {
		return fmt.Errorf("trace: plot size %dx%d too small", width, height)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return fmt.Errorf("trace: no points to plot")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "*+o#@%&="
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: [%.4g, %.4g]  x: [%.4g, %.4g]\n", minY, maxY, minX, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[si%len(marks)], s.Name)
	}
	for _, row := range grid {
		b.Write(row)
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
