// Package stats provides the measurement primitives used by the benchmark
// harness: log-bucketed latency histograms with percentile queries, running
// scalar summaries, and small helpers for formatting result tables.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"strings"

	"ccnic/internal/sim"
)

// Histogram is a log-linear histogram of sim.Time samples, in the spirit of
// HDR histograms: values are bucketed with bounded relative error (~3%),
// which is ample for latency percentiles while using constant memory.
type Histogram struct {
	count   int64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
	buckets [nBuckets]int64
}

const (
	// subBits sub-buckets per power of two: 2^5 = 32 gives ~3% resolution.
	subBits  = 5
	nSub     = 1 << subBits
	nBuckets = 64 * nSub
)

// bucketOf maps a value (in picoseconds) to its bucket index.
func bucketOf(v sim.Time) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < nSub {
		return int(u)
	}
	exp := 63 - bits.LeadingZeros64(u)
	shift := exp - subBits
	sub := int((u >> uint(shift)) & (nSub - 1))
	return (exp-subBits+1)*nSub + sub
}

// bucketLow returns the lowest value mapping to bucket i (its representative).
func bucketLow(i int) sim.Time {
	if i < nSub {
		return sim.Time(i)
	}
	block := i/nSub - 1
	sub := i % nSub
	return sim.Time((uint64(nSub) + uint64(sub)) << uint(block+1) >> 1)
}

// Record adds one sample.
func (h *Histogram) Record(v sim.Time) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the samples (0 if empty).
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Percentile returns the value at quantile q in [0,1], e.g. 0.5 for the
// median. The result is the representative value of the containing bucket,
// clamped to the observed min/max so exact-valued distributions round-trip.
func (h *Histogram) Percentile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is shorthand for Percentile(0.5).
func (h *Histogram) Median() sim.Time { return h.Percentile(0.5) }

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// Point is one (x, y) sample of a result series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points — one plotted line of a paper figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// MaxY returns the largest Y value in the series (0 if empty).
func (s *Series) MaxY() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// YAt returns the Y value at the given X, or false if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Cell is one table entry: the values it shows and the fmt format that
// prints them, so a reader takes the number and the transcript the text.
type Cell struct {
	Format string
	Values []any
}

// Val is a cell printing values with format.
func Val(format string, values ...any) Cell { return Cell{format, values} }

// Text is a cell printing s as it is.
func Text(s string) Cell { return Cell{"%s", []any{s}} }

// String renders the cell.
func (c Cell) String() string { return fmt.Sprintf(c.Format, c.Values...) }

// Float returns the cell's first value, a number (a sim.Time in
// picoseconds), as a float64.
func (c Cell) Float() float64 {
	return reflect.ValueOf(c.Values[0]).Convert(reflect.TypeOf(0.0)).Float()
}

// Table is a simple named-rows result table — one paper table or bar chart.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]Cell
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	lines := [][]string{t.Columns}
	widths := make([]int, len(t.Columns))
	for _, r := range t.Rows {
		line := make([]string, len(r))
		for i, c := range r {
			line[i] = c.String()
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		for i, c := range line {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	if t.Name != "" {
		b.WriteString("# " + t.Name + "\n")
	}
	for _, line := range lines {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

// FormatSeries renders one or more series as aligned columns sharing X.
func FormatSeries(name string, series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	// Collect union of X values in order of first appearance, then sorted.
	xsSet := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !xsSet[p.X] {
				xsSet[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	t := Table{Name: name, Columns: []string{series[0].XLabel}}
	for _, s := range series {
		t.Columns = append(t.Columns, s.Name)
	}
	for _, x := range xs {
		row := []Cell{Text(trimFloat(x))}
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				row = append(row, Text(trimFloat(y)))
			} else {
				row = append(row, Text("-"))
			}
		}
		t.AddRow(row...)
	}
	return t.Format()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
