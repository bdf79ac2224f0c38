package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulator(t *testing.T) {
	var a Accumulator
	for _, v := range []float64{2, 4, 6} {
		a.Add(v)
	}
	if a.N() != 3 || a.Mean() != 4 || a.Min() != 2 || a.Max() != 6 {
		t.Fatalf("accumulator wrong: %+v", a)
	}
	want := math.Sqrt((4 + 0 + 4) / 3.0)
	if math.Abs(a.StdDev()-want) > 1e-9 {
		t.Fatalf("stddev = %f, want %f", a.StdDev(), want)
	}
	var empty Accumulator
	if empty.Mean() != 0 || empty.StdDev() != 0 {
		t.Fatal("empty accumulator should be zero")
	}
}

// Property: mean is always within [min, max].
func TestAccumulatorMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var a Accumulator
		ok := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // avoid float64 overflow in sum of squares
			}
			a.Add(v)
			ok = true
		}
		if !ok {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, v := range []float64{1, 12, 23, 23, 49, 120} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Bin(0) != 1 || h.Bin(1) != 1 || h.Bin(2) != 2 || h.Bin(4) != 1 {
		t.Fatal("bin counts wrong")
	}
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	if p := h.Percentile(0.5); p != 30 {
		t.Fatalf("p50 = %f, want 30", p)
	}
	if p := h.Percentile(1.0); !math.IsInf(p, 1) {
		t.Fatalf("p100 should be +Inf with overflow, got %f", p)
	}
	h2 := NewHistogram(1, 4)
	h2.Add(-5)
	if h2.Bin(0) != 1 {
		t.Fatal("negative value should clamp to bin 0")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "name", "size", "ft")
	tb.AddRow("beta", 1024.0, "*")
	tb.AddRow("alpha", 64.0, "")
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "name") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
	if !strings.Contains(s, "1024") {
		t.Fatalf("float should render without decimals:\n%s", s)
	}
	tb.SortByColumn(0)
	if tb.Cell(0, 0) != "alpha" {
		t.Fatal("string sort failed")
	}
	tb.SortByColumn(1)
	if tb.Cell(0, 1) != "64" {
		t.Fatal("numeric sort failed")
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,size,ft\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// Empty histogram: every percentile is 0.
	h := NewHistogram(10, 4)
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}

	// Single sample: the whole distribution sits in one bin, so every
	// positive percentile reports that bin's upper edge.
	h = NewHistogram(10, 4)
	h.Add(25)
	for _, p := range []float64{0.01, 0.5, 1} {
		if got := h.Percentile(p); got != 30 {
			t.Errorf("single-sample Percentile(%v) = %v, want 30", p, got)
		}
	}
	// p = 0 is the distribution's lower bound, not a bin edge.
	if got := h.Percentile(0); got != 0 {
		t.Errorf("Percentile(0) = %v, want 0", got)
	}
	if got := h.Percentile(-0.5); got != 0 {
		t.Errorf("Percentile(-0.5) = %v, want 0", got)
	}
	// p beyond 1 clamps to the maximum, it does not overshoot to +Inf.
	if got := h.Percentile(1.5); got != 30 {
		t.Errorf("Percentile(1.5) = %v, want 30", got)
	}

	// All observations in the overflow bin: any percentile is +Inf.
	h = NewHistogram(10, 4)
	h.Add(1000)
	h.Add(2000)
	if got := h.Percentile(0.5); !math.IsInf(got, 1) {
		t.Errorf("all-overflow Percentile(0.5) = %v, want +Inf", got)
	}
	if h.Overflow() != 2 || h.Total() != 2 {
		t.Errorf("overflow=%d total=%d", h.Overflow(), h.Total())
	}
	// ... but p = 0 still reports the lower bound.
	if got := h.Percentile(0); got != 0 {
		t.Errorf("all-overflow Percentile(0) = %v, want 0", got)
	}
}

// The p999 tail must resolve a 1-in-1000 outlier: 999 fast samples and
// one slow one put p99 in the fast bin but p999 in the outlier's bin.
func TestPercentileP999Tail(t *testing.T) {
	h := NewHistogram(1, 2000)
	for i := 0; i < 999; i++ {
		h.Add(0.5) // bin 0, upper edge 1
	}
	h.Add(1500.5) // bin 1500, upper edge 1501
	if got := h.Percentile(0.99); got != 1 {
		t.Errorf("p99 = %v, want 1 (fast bin edge)", got)
	}
	if got := h.Percentile(0.999); got != 1 {
		t.Errorf("p999 = %v, want 1 (outlier is sample 1000 of 1000)", got)
	}
	// One more outlier tips the 0.999 quantile into the slow bin.
	h.Add(1500.5)
	if got := h.Percentile(0.999); got != 1501 {
		t.Errorf("p999 after second outlier = %v, want 1501", got)
	}
	// Beyond-range samples land in overflow, so p999 can report +Inf
	// while p50 stays finite.
	h.Add(1e9)
	h.Add(1e9)
	h.Add(1e9)
	if got := h.Percentile(0.5); got != 1 {
		t.Errorf("p50 with overflow tail = %v, want 1", got)
	}
	if got := h.Percentile(0.999); !math.IsInf(got, 1) {
		t.Errorf("p999 with overflow tail = %v, want +Inf", got)
	}
}

// Merge must be exactly equivalent to having recorded every sample
// into one histogram — the decision service's cross-shard aggregation
// depends on the merged percentiles matching a single-writer run.
func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(10, 5)
	a := NewHistogram(10, 5)
	b := NewHistogram(10, 5)
	for i, v := range []float64{1, 12, 23, 23, 49, 120, -3, 7, 95, 200} {
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != whole.Total() || a.Overflow() != whole.Overflow() {
		t.Fatalf("merged total=%d overflow=%d, want %d/%d", a.Total(), a.Overflow(), whole.Total(), whole.Overflow())
	}
	for i := 0; i < 5; i++ {
		if a.Bin(i) != whole.Bin(i) {
			t.Fatalf("merged bin %d = %d, want %d", i, a.Bin(i), whole.Bin(i))
		}
	}
	for _, p := range []float64{0.01, 0.5, 0.99, 0.999} {
		if got, want := a.Percentile(p), whole.Percentile(p); got != want {
			t.Fatalf("merged Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// b is untouched by the merge.
	if b.Total() != 5 {
		t.Fatalf("source histogram mutated: total %d", b.Total())
	}
}

func TestHistogramMergeEdges(t *testing.T) {
	h := NewHistogram(10, 4)
	h.Add(15)

	// Merging nil or an empty histogram (even a mis-shaped empty one)
	// is a no-op, not an error: an idle worker contributes nothing.
	if err := h.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if err := h.Merge(NewHistogram(99, 1)); err != nil {
		t.Fatalf("empty mis-shaped merge: %v", err)
	}
	if h.Total() != 1 {
		t.Fatalf("no-op merges changed total to %d", h.Total())
	}

	// A non-empty shape mismatch is an error and must not partially
	// apply.
	wrong := NewHistogram(5, 4)
	wrong.Add(3)
	if err := h.Merge(wrong); err == nil {
		t.Fatal("bin-width mismatch accepted")
	}
	wrongLen := NewHistogram(10, 8)
	wrongLen.Add(3)
	if err := h.Merge(wrongLen); err == nil {
		t.Fatal("bin-count mismatch accepted")
	}
	if h.Total() != 1 || h.Bin(0) != 0 {
		t.Fatalf("failed merge mutated target: total=%d bin0=%d", h.Total(), h.Bin(0))
	}

	// Negative samples were clamped into bin 0 at Add time; a merge
	// carries the clamped counts, it does not re-clamp or drop them.
	neg := NewHistogram(10, 4)
	neg.Add(-5)
	neg.Add(-0.5)
	if err := h.Merge(neg); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 3 || h.Bin(0) != 2 {
		t.Fatalf("negative-sample merge: total=%d bin0=%d, want 3/2", h.Total(), h.Bin(0))
	}
}

// Negative observations clamp into the first bin rather than panicking
// or skewing the total.
func TestHistogramNegativeSamples(t *testing.T) {
	h := NewHistogram(10, 4)
	h.Add(-5)
	h.Add(-0.001)
	if h.Total() != 2 || h.Bin(0) != 2 {
		t.Fatalf("total=%d bin0=%d, want both 2", h.Total(), h.Bin(0))
	}
	if got := h.Percentile(0.5); got != 10 {
		t.Fatalf("negative-sample p50 = %v, want first bin edge 10", got)
	}
}

// TestHistogramAddN: AddN(v, n) is n calls of Add(v), overflow and
// clamping included.
func TestHistogramAddN(t *testing.T) {
	one, many := NewHistogram(10, 5), NewHistogram(10, 5)
	for _, c := range []struct {
		v float64
		n int64
	}{{1, 3}, {23, 1}, {-3, 2}, {49, 4}, {120, 5}} {
		for i := int64(0); i < c.n; i++ {
			one.Add(c.v)
		}
		many.AddN(c.v, c.n)
	}
	if many.Total() != one.Total() || many.Overflow() != one.Overflow() {
		t.Fatalf("AddN total=%d overflow=%d, want %d/%d", many.Total(), many.Overflow(), one.Total(), one.Overflow())
	}
	for i := 0; i < 5; i++ {
		if many.Bin(i) != one.Bin(i) {
			t.Fatalf("AddN bin %d = %d, want %d", i, many.Bin(i), one.Bin(i))
		}
	}
}
