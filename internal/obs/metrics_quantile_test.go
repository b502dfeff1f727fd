package obs

import "testing"

// TestQuantileEdgeCases pins HistogramSnapshot.Quantile on the degenerate
// shapes the exposition path can feed it: empty histograms, a single
// populated bucket, and all mass in the overflow bucket.
func TestQuantileEdgeCases(t *testing.T) {
	// Empty: no observations, and no bounds at all.
	empty := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 0, 0}}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	unbounded := HistogramSnapshot{Count: 5}
	if got := unbounded.Quantile(0.5); got != 0 {
		t.Fatalf("boundless histogram Quantile(0.5) = %v, want 0", got)
	}

	// Single bucket holding every observation: all quantiles interpolate
	// inside [lo, hi] of that bucket and stay monotone in q.
	single := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 10, 0, 0},
		Count:  10,
		Sum:    15,
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		got := single.Quantile(q)
		if got < 1 || got > 2 {
			t.Fatalf("single-bucket Quantile(%v) = %v, want within (1, 2]", q, got)
		}
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v gave %v after %v", q, got, prev)
		}
		prev = got
	}
	if got, want := single.Quantile(0.5), 1.5; got != want {
		t.Fatalf("single-bucket median = %v, want %v", got, want)
	}

	// All mass beyond the last bound: the overflow bucket has no upper edge
	// to interpolate toward, so every quantile clamps to the last bound.
	overflow := HistogramSnapshot{
		Bounds: []float64{0.01, 0.1, 1},
		Counts: []int64{0, 0, 0, 7},
		Count:  7,
		Sum:    700,
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := overflow.Quantile(q); got != 1 {
			t.Fatalf("overflow-only Quantile(%v) = %v, want 1 (last bound)", q, got)
		}
	}

	// Out-of-range q clamps instead of panicking or extrapolating.
	if got := single.Quantile(-3); got != single.Quantile(0) {
		t.Fatalf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, single.Quantile(0))
	}
	if got := single.Quantile(7); got != single.Quantile(1) {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, single.Quantile(1))
	}
}

// TestQuantileClampedToObservedRange pins that bucket interpolation never
// reports a quantile outside the observed samples. The sample is skewed:
// most tasks take 12 ms, a tail of ten takes 50 ms, and the half-decade
// bucket (30 ms, 100 ms] holding the tail would interpolate p99 to 93 ms.
func TestQuantileClampedToObservedRange(t *testing.T) {
	h := newHistogram([]float64{1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.012)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	s := h.Snapshot()
	if s.Min != 0.012 || s.Max != 0.05 {
		t.Fatalf("observed range [%g, %g], want [0.012, 0.05]", s.Min, s.Max)
	}
	if raw := s.interpolate(0.99); raw <= s.Max {
		t.Fatalf("unclamped p99 %g does not exceed the max %g: the sample no longer exercises the clamp", raw, s.Max)
	}
	p50, p90, p99 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
	if !(s.Min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= s.Max) {
		t.Errorf("want min ≤ p50 ≤ p90 ≤ p99 ≤ max, got %g ≤ %g ≤ %g ≤ %g ≤ %g", s.Min, p50, p90, p99, s.Max)
	}

	// An all-zero sample has every quantile at zero, not inside the first
	// bucket.
	z := newHistogram([]float64{1, 2})
	z.Observe(0)
	z.Observe(0)
	if got := z.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("all-zero sample median = %g, want 0", got)
	}
}
