package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ccnic/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Median() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(500 * sim.Nanosecond)
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 500*sim.Nanosecond || h.Max() != 500*sim.Nanosecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Median(); got != 500*sim.Nanosecond {
		t.Errorf("median = %v, want clamped to 500ns", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	var exact []sim.Time
	for i := 0; i < 10000; i++ {
		v := sim.Time(rng.Int63n(int64(10 * sim.Microsecond)))
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Percentile(q)
		want := exact[int(q*float64(len(exact)))-1]
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.05 {
			t.Errorf("p%g = %v, exact %v, rel err %.3f > 5%%", q*100, got, want, relErr)
		}
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Record(20)
	h.Record(30)
	if got := h.Percentile(-1); got != 10 {
		t.Errorf("q<0 = %v, want min", got)
	}
	if got := h.Percentile(2); got != 30 {
		t.Errorf("q>1 = %v, want max", got)
	}
	if h.Record(-5); h.Min() != -5 {
		t.Errorf("negative sample min = %v", h.Min())
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	var a, b, c Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := sim.Time(rng.Int63n(1 << 30))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		c.Record(v)
	}
	a.Merge(&b)
	if a.Count() != c.Count() || a.Min() != c.Min() || a.Max() != c.Max() || a.Mean() != c.Mean() {
		t.Error("merge summary mismatch")
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if a.Percentile(q) != c.Percentile(q) {
			t.Errorf("merge percentile %g mismatch: %v vs %v", q, a.Percentile(q), c.Percentile(q))
		}
	}
	var empty Histogram
	before := a.Count()
	a.Merge(&empty)
	if a.Count() != before {
		t.Error("merging empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Median() != 0 {
		t.Error("reset did not clear histogram")
	}
}

// Property: every bucket's representative maps back into the same bucket,
// and bucket boundaries are monotone.
func TestBucketRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := sim.Time(raw)
		b := bucketOf(v)
		rep := bucketLow(b)
		return bucketOf(rep) == b && rep <= v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in q.
func TestPercentileMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		h.Record(sim.Time(rng.Int63n(1 << 40)))
	}
	prev := sim.Time(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Percentile(q)
		if v < prev {
			t.Fatalf("percentile not monotone at q=%g: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "tput", XLabel: "cores", YLabel: "Gbps"}
	s.Add(1, 10)
	s.Add(2, 19)
	s.Add(4, 35)
	if s.MaxY() != 35 {
		t.Errorf("MaxY = %v", s.MaxY())
	}
	if y, ok := s.YAt(2); !ok || y != 19 {
		t.Errorf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Error("YAt(3) should be absent")
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{Name: "demo", Columns: []string{"name", "value"}}
	tab.AddRow(Text("short"), Val("%d", 1))
	tab.AddRow(Text("a-much-longer-name"), Val("%d", 23456))
	out := tab.Format()
	if !strings.Contains(out, "# demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4: %q", len(lines), out)
	}
	// All data lines should align: the "value" column starts at same offset.
	if strings.Index(lines[1], "1") != strings.Index(lines[2], "23456") {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestFormatSeriesUnionOfX(t *testing.T) {
	a := Series{Name: "a", XLabel: "x"}
	a.Add(1, 10)
	a.Add(3, 30)
	b := Series{Name: "b", XLabel: "x"}
	b.Add(2, 20)
	out := FormatSeries("fig", &a, &b)
	if !strings.Contains(out, "fig") || !strings.Contains(out, "-") {
		t.Errorf("missing title or placeholder:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, 3 x rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if FormatSeries("empty") != "" {
		t.Error("no series should render empty")
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" {
		t.Errorf("trimFloat(3) = %q", trimFloat(3))
	}
	if trimFloat(3.14159) != "3.14" {
		t.Errorf("trimFloat(3.14159) = %q", trimFloat(3.14159))
	}
}

func TestPlotRendersShape(t *testing.T) {
	a := Series{Name: "rising", XLabel: "x"}
	for i := 0; i <= 10; i++ {
		a.Add(float64(i), float64(i*i))
	}
	b := Series{Name: "flat"}
	for i := 0; i <= 10; i++ {
		b.Add(float64(i), 50)
	}
	out := Plot("demo", 40, 10, &a, &b)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "rising") || !strings.Contains(out, "flat") {
		t.Fatalf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	// Axis extents present.
	if !strings.Contains(out, "100") || !strings.Contains(out, "0 .. 10") {
		t.Fatalf("missing extents:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Title + 10 grid rows + border + axis + 2 legend + trailing empty.
	if len(lines) != 16 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestPlotDegenerateInputs(t *testing.T) {
	if out := Plot("empty", 40, 10); !strings.Contains(out, "no data") {
		t.Errorf("empty plot: %q", out)
	}
	s := Series{Name: "point"}
	s.Add(5, 7)
	out := Plot("single", 1, 1) // forces clamping
	_ = out
	out = Plot("single", 20, 6, &s)
	if !strings.Contains(out, "*") {
		t.Errorf("single point not drawn:\n%s", out)
	}
}
