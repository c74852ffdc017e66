// Package stats provides the measurement primitives shared by every
// experiment: streaming means, log-bucketed latency histograms
// with percentile estimation, bandwidth accounting, and plain-text table
// rendering in the style of the paper's tables.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean accumulates a streaming mean with the sample range. The zero
// value is an empty accumulator.
type Mean struct {
	n    uint64
	mean float64
	min  float64
	max  float64
}

// Add folds a sample into the accumulator.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.mean += (x - m.mean) / float64(m.n)
}

// N reports the number of samples.
func (m Mean) N() uint64 { return m.n }

// Mean reports the sample mean (0 if empty).
func (m Mean) Mean() float64 { return m.mean }

// Min reports the smallest sample (0 if empty).
func (m Mean) Min() float64 { return m.min }

// Max reports the largest sample (0 if empty).
func (m Mean) Max() float64 { return m.max }

// Histogram is a log-bucketed histogram for positive values. Buckets grow
// geometrically, giving ~4% relative error on percentile estimates with
// bounded memory regardless of sample count — the standard shape for
// latency distributions that span nanoseconds to seconds.
type Histogram struct {
	acc     Mean
	buckets [512]uint64
}

// N reports the number of samples.
func (h Histogram) N() uint64 { return h.acc.N() }

// Mean reports the sample mean.
func (h Histogram) Mean() float64 { return h.acc.Mean() }

// bucketFor maps a positive value to a bucket index. Values are bucketed
// by log base 2^(1/8): 8 sub-buckets per octave, exactly as logBucket
// computes it, but without a logarithm: the exponent bits place x in its
// octave, and the precomputed thresholds place it within.
func bucketFor(x float64) int {
	if x < 1 {
		return 0
	}
	if !(x < 1<<63) {
		return logBucket(x) // NaN, +Inf and the top octaves
	}
	b := 8 * (int(math.Float64bits(x)>>52) - 1023)
	for b < 511 && x >= bucketLow[b+1] {
		b++
	}
	return b
}

// logBucket is the defining formula behind bucketFor.
func logBucket(x float64) int {
	if x < 1 {
		return 0
	}
	b := int(math.Log2(x) * 8)
	if b < 0 {
		b = 0
	}
	if b > 511 {
		b = 511
	}
	return b
}

// bucketLow[b] is the least x >= 1 that logBucket puts in bucket b or
// above. The search starts from 2^(b/8) and steps one float at a time,
// up while x falls short of b and down while the float below still
// reaches it. 2^(b/8) lies within 22 floats of every threshold.
var bucketLow = func() (t [512]float64) {
	t[0] = 1
	for b := 1; b < len(t); b++ {
		x := math.Exp2(float64(b) / 8)
		for logBucket(x) < b {
			x = math.Nextafter(x, math.Inf(1))
		}
		for logBucket(math.Nextafter(x, 0)) >= b {
			x = math.Nextafter(x, 0)
		}
		t[b] = x
	}
	return t
}()

// bucketValue returns the representative (geometric mid) value of bucket b.
func bucketValue(b int) float64 {
	return math.Pow(2, (float64(b)+0.5)/8)
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.acc.Add(x)
	h.buckets[bucketFor(x)]++
}

// Percentile estimates the p-th percentile, p in [0, 100].
func (h Histogram) Percentile(p float64) float64 {
	if h.acc.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.acc.min
	}
	if p >= 100 {
		return h.acc.max
	}
	target := uint64(math.Ceil(float64(h.acc.n) * p / 100))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.buckets {
		cum += c
		if cum >= target {
			v := bucketValue(b)
			if v < h.acc.min {
				v = h.acc.min
			}
			if v > h.acc.max {
				v = h.acc.max
			}
			return v
		}
	}
	return h.acc.max
}

// Bandwidth converts bytes moved over a duration (seconds) to MB/s, using
// the paper's decimal-megabyte convention.
func Bandwidth(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / seconds
}

// Ratio returns a/b, or +Inf when b is zero and a is not, matching how the
// paper reports seq/rand ratios for devices whose random performance
// rounds to zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return a / b
}

// Improvement returns the percentage improvement of 'new' over 'old' for a
// lower-is-better metric such as response time.
func Improvement(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (old - new) / old * 100
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	Title  string
	header []string
	rows   [][]string
	notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.4f", v)
	case math.Abs(v) < 10:
		return fmt.Sprintf("%.2f", v)
	case math.Abs(v) < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var out []byte
	if t.Title != "" {
		out = append(out, t.Title...)
		out = append(out, '\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			out = append(out, fmt.Sprintf("%-*s", widths[i]+2, c)...)
		}
		// Trim trailing spaces for clean diffs.
		for len(out) > 0 && out[len(out)-1] == ' ' {
			out = out[:len(out)-1]
		}
		out = append(out, '\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		out = append(out, "  note: "...)
		out = append(out, n...)
		out = append(out, '\n')
	}
	return string(out)
}

// Grid accumulates a two-axis comparison table: samples keyed by
// (row, col) label, with rows and columns ordered by first insertion and
// duplicate (row, col) samples averaged through Mean — the shape of
// every "metric across axis A × axis B" rendering (the paper's tables,
// campaign comparison tables). It is the one renderer behind the
// campaign table endpoint and cmd/repro's client-side tables.
type Grid struct {
	Title  string
	Corner string // header of the row-label column
	rows   []string
	cols   []string
	cells  map[string]map[string]*Mean
	notes  []string
}

// NewGrid creates an empty grid.
func NewGrid(title, corner string) *Grid {
	return &Grid{Title: title, Corner: corner, cells: map[string]map[string]*Mean{}}
}

// Add folds one sample into the (row, col) cell, creating the row and
// column on first sight.
func (g *Grid) Add(row, col string, v float64) {
	byCol, ok := g.cells[row]
	if !ok {
		byCol = map[string]*Mean{}
		g.cells[row] = byCol
		g.rows = append(g.rows, row)
	}
	cell, ok := byCol[col]
	if !ok {
		cell = &Mean{}
		byCol[col] = cell
		found := false
		for _, c := range g.cols {
			if c == col {
				found = true
				break
			}
		}
		if !found {
			g.cols = append(g.cols, col)
		}
	}
	cell.Add(v)
}

// AddNote appends a footnote rendered under the grid.
func (g *Grid) AddNote(format string, args ...any) {
	g.notes = append(g.notes, fmt.Sprintf(format, args...))
}

// MaxN reports the largest sample count in any cell: > 1 means some
// cell is an average, worth a footnote.
func (g *Grid) MaxN() uint64 {
	var n uint64
	for _, byCol := range g.cells {
		for _, cell := range byCol {
			if cell.N() > n {
				n = cell.N()
			}
		}
	}
	return n
}

// Table renders the grid as a Table: one row per row label, one column
// per column label, empty cells as "-".
func (g *Grid) Table() *Table {
	header := append([]string{g.Corner}, g.cols...)
	t := NewTable(g.Title, header...)
	for _, row := range g.rows {
		cells := make([]any, 0, len(g.cols)+1)
		cells = append(cells, row)
		for _, col := range g.cols {
			if cell, ok := g.cells[row][col]; ok {
				cells = append(cells, cell.Mean())
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	for _, n := range g.notes {
		t.AddNote("%s", n)
	}
	return t
}

// String renders the grid with aligned columns.
func (g *Grid) String() string { return g.Table().String() }

// Series is a named (x, y) sequence used for figure-style outputs.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as two aligned columns.
func (s *Series) String() string {
	out := fmt.Sprintf("# %s\n", s.Name)
	for i := range s.X {
		out += fmt.Sprintf("%12.4f %12.4f\n", s.X[i], s.Y[i])
	}
	return out
}

// Summarize returns min/median/max of a float slice (sorting a copy).
func Summarize(xs []float64) (min, median, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[0], c[len(c)/2], c[len(c)-1]
}
