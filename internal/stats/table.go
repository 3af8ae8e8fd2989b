package stats

import "strings"

// Table accumulates rows of strings and renders them with aligned columns.
// The experiment harness uses it to print the same row/series layout the
// paper's tables and figures report.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Cells beyond the header width are kept; short rows
// are padded when rendering.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
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
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < cols-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named (x, y) sequence — one curve of a paper figure.
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

// Crossover returns the first x at which series a stops exceeding series b
// (i.e. a.Y <= b.Y), scanning the shared x grid in order. This locates the
// rate threshold ρ* in the experiment curves: below the crossover the
// (σ,ρ,λ) curve (a) lies above the (σ,ρ) curve (b), above it the order
// flips. The second return is false when the curves never cross.
func Crossover(a, b *Series) (float64, bool) {
	n := len(a.X)
	if len(b.X) < n {
		n = len(b.X)
	}
	for i := 0; i < n; i++ {
		if a.X[i] != b.X[i] {
			panic("stats: Crossover requires a shared x grid")
		}
		if a.Y[i] <= b.Y[i] {
			return a.X[i], true
		}
	}
	return 0, false
}

// MaxRatio returns max over the shared grid of a.Y/b.Y restricted to x >=
// from, together with the x where it occurs. It quantifies the paper's
// "maximum worst-case delay improvement" of scheme b over scheme a when
// a is the baseline (ratio = baseline/new).
func MaxRatio(a, b *Series, from float64) (ratio, atX float64) {
	n := len(a.X)
	if len(b.X) < n {
		n = len(b.X)
	}
	for i := 0; i < n; i++ {
		if a.X[i] < from || b.Y[i] <= 0 {
			continue
		}
		r := a.Y[i] / b.Y[i]
		if r > ratio {
			ratio, atX = r, a.X[i]
		}
	}
	return ratio, atX
}
