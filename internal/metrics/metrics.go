// Package metrics provides the small statistics toolkit used by the
// evaluation harness: streaming mean/min/max accumulators, fixed-bin
// histograms and labelled result tables rendered as aligned text (the
// format cmd/tables uses to regenerate the paper's tables).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Accumulator collects streaming summary statistics.
type Accumulator struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
	a.sumSq += v * v
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the arithmetic mean (0 when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 {
	if a.n == 0 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Histogram is a fixed-width-bin histogram with overflow bin.
type Histogram struct {
	binWidth float64
	bins     []int64
	overflow int64
	total    int64
}

// NewHistogram builds a histogram of `bins` bins of the given width
// starting at zero.
func NewHistogram(binWidth float64, bins int) *Histogram {
	if binWidth <= 0 || bins <= 0 {
		panic("metrics: invalid histogram shape")
	}
	return &Histogram{binWidth: binWidth, bins: make([]int64, bins)}
}

// Add records one observation (negative values clamp to bin 0).
func (h *Histogram) Add(v float64) {
	h.total++
	if v < 0 {
		v = 0
	}
	i := int(v / h.binWidth)
	if i >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[i]++
}

// Merge folds o's counts into h. The two histograms must have the
// same shape (bin width and bin count) — the decision service merges
// per-shard latency histograms, each recorded under its own shard
// lock, into one service-wide distribution, and a shape mismatch
// would silently shift every percentile, so it is an error rather
// than a best-effort rebin. A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.total == 0 {
		return nil
	}
	if o.binWidth != h.binWidth || len(o.bins) != len(h.bins) {
		return fmt.Errorf("metrics: merging histogram of %d bins width %g into %d bins width %g",
			len(o.bins), o.binWidth, len(h.bins), h.binWidth)
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	return nil
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Bin returns the count of bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// Overflow returns the count beyond the last bin.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Percentile returns an upper bound for the p-quantile (0<p<=1) using
// bin upper edges; the overflow bin returns +Inf.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.total)))
	var cum int64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return float64(i+1) * h.binWidth
		}
	}
	return math.Inf(1)
}

// Table is a labelled result table rendered as aligned text.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// SortByColumn sorts rows by the given column (string order unless all
// cells parse as numbers).
func (t *Table) SortByColumn(col int) {
	numeric := true
	for _, r := range t.rows {
		if _, err := fmt.Sscanf(r[col], "%f", new(float64)); err != nil {
			numeric = false
			break
		}
	}
	sort.SliceStable(t.rows, func(i, j int) bool {
		if numeric {
			var a, b float64
			fmt.Sscanf(t.rows[i][col], "%f", &a)
			fmt.Sscanf(t.rows[j][col], "%f", &b)
			return a < b
		}
		return t.rows[i][col] < t.rows[j][col]
	})
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hd := range t.header {
		widths[i] = len(hd)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Quantile returns the p-quantile (0 <= p <= 1) of a sorted sample
// using nearest-rank; it returns 0 for an empty sample.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
