package ledger

import (
	"math"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's acceptance spreads are computed with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		s := Summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.q2) || !near(s.Q3, tc.q3) {
			t.Errorf("Summarize(%v) quartiles %v %v %v, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0, 1}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

// A tail percentile needs at least ten samples beyond it: p99 from 1000
// samples, not from 999; p90 from 100.
func TestTailReportable(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, {99, 999, false}, {99, 5000, true},
		{90, 100, true}, {90, 99, false}, {50, 20, true}, {50, 19, false},
	} {
		if got := TailReportable(tc.p, tc.n); got != tc.want {
			t.Errorf("TailReportable(%v, %d) = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestSummarizeSpread(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 || !near(s.Median, 5.5) {
		t.Fatalf("Summarize = %+v", s)
	}
	if want := (8.25 - 2.75) / 5.5; !near(s.Spread(), want) {
		t.Errorf("Spread = %v, want %v", s.Spread(), want)
	}
	if (Summary{}).Spread() != 0 {
		t.Error("zero summary has a spread")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
