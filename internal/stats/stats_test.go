package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMomentsBasics(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.Count() != 8 {
		t.Fatalf("count = %d", m.Count())
	}
	if !almost(m.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", m.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almost(m.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", m.Variance())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v", m.Min(), m.Max())
	}
	if !almost(m.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %v", m.Sum())
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.CV() != 0 {
		t.Fatal("empty moments not zero")
	}
	m.Add(3)
	if m.Variance() != 0 || m.Mean() != 3 || m.Min() != 3 || m.Max() != 3 {
		t.Fatal("single-value moments wrong")
	}
}

func TestMomentsMatchNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var m Moments
		sum, sum2 := 0.0, 0.0
		for _, r := range raw {
			x := float64(r) / 3
			m.Add(x)
			sum += x
			sum2 += x * x
		}
		n := float64(len(raw))
		mean := sum / n
		variance := (sum2 - n*mean*mean) / (n - 1)
		return almost(m.Mean(), mean, 1e-6) && almost(m.Variance(), math.Max(variance, 0), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.Median(), 50.5, 1e-9) {
		t.Fatalf("median = %v", s.Median())
	}
	if !almost(s.Percentile(0), 1, 1e-9) || !almost(s.Percentile(100), 100, 1e-9) {
		t.Fatalf("p0/p100 = %v/%v", s.Percentile(0), s.Percentile(100))
	}
	p95 := s.Percentile(95)
	if p95 < 95 || p95 > 96.5 {
		t.Fatalf("p95 = %v", p95)
	}
}

func TestSamplePercentileInterleavedAdds(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Median() // forces a sort
	s.Add(1)       // must invalidate the sort
	s.Add(9)
	if !almost(s.Median(), 5, 1e-9) {
		t.Fatalf("median = %v", s.Median())
	}
}

func TestSampleMergeMatchesAdd(t *testing.T) {
	var all, odd, even Sample
	for i := 1; i <= 100; i++ {
		all.Add(float64(i))
		if i%2 == 1 {
			odd.Add(float64(i))
		} else {
			even.Add(float64(i))
		}
	}
	_ = odd.Median() // a sorted receiver must take unsorted additions
	odd.Merge(&even)
	if odd.Count() != all.Count() || !almost(odd.Mean(), all.Mean(), 1e-9) || odd.Max() != all.Max() {
		t.Fatalf("merged count/mean/max = %d/%v/%v, want %d/%v/%v",
			odd.Count(), odd.Mean(), odd.Max(), all.Count(), all.Mean(), all.Max())
	}
	for _, p := range []float64{0, 50, 95, 100} {
		if odd.Percentile(p) != all.Percentile(p) {
			t.Fatalf("p%v: merged %v, want %v", p, odd.Percentile(p), all.Percentile(p))
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.CDF(4) != nil {
		t.Fatal("empty sample not zero-valued")
	}
}

func TestSamplePercentilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Percentile(101)
}

func TestSamplePercentileRejectsNaN(t *testing.T) {
	// NaN compares false against both range bounds, so without an
	// explicit check it would slip past validation and index an
	// arbitrary rank. It must panic like any other out-of-range p.
	var s Sample
	s.Add(1)
	s.Add(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN percentile")
		}
	}()
	s.Percentile(math.NaN())
}

func TestSampleCDFMonotone(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		cdf := s.CDF(20)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X < cdf[i-1].X || cdf[i].F <= cdf[i-1].F {
				return false
			}
		}
		return cdf[len(cdf)-1].F == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesRejectsNaNTime(t *testing.T) {
	// NaN t passes the t < 0 guard (NaN comparisons are false) and the
	// old code indexed with int(NaN) — a platform-dependent negative.
	ts := NewTimeSeries(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN time")
		}
	}()
	ts.Add(math.NaN(), 1)
}

func TestTimeSeriesRejectsInfTime(t *testing.T) {
	// +Inf t passed the guard too, and the bin-growing loop would try
	// to extend the slice to int(+Inf) entries before the allocator
	// gave out.
	ts := NewTimeSeries(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for +Inf time")
		}
	}()
	ts.Add(math.Inf(1), 1)
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(60)
	ts.Add(0, 1)
	ts.Add(59.9, 1)
	ts.Add(60, 1)
	ts.Add(185, 1)
	if bins := ts.Bins(); !slices.Equal(bins, []float64{2, 1, 0, 1}) {
		t.Fatalf("bins = %v", bins)
	}
	peak, idx := ts.Peak()
	if peak != 2 || idx != 0 {
		t.Fatalf("peak = %v@%d", peak, idx)
	}
}

func TestTimeSeriesBurstiness(t *testing.T) {
	// A constant-rate series has dispersion ~0; a bursty one is large.
	flat := NewTimeSeries(1)
	for i := 0; i < 100; i++ {
		flat.Add(float64(i), 5)
	}
	bursty := NewTimeSeries(1)
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			bursty.Add(float64(i), 50)
		} else {
			bursty.Add(float64(i), 0)
		}
	}
	if flat.IndexOfDispersion() != 0 {
		t.Fatalf("flat dispersion = %v", flat.IndexOfDispersion())
	}
	if bursty.IndexOfDispersion() < 10 {
		t.Fatalf("bursty dispersion = %v", bursty.IndexOfDispersion())
	}
	if flat.PeakToMean() != 1 {
		t.Fatalf("flat peak/mean = %v", flat.PeakToMean())
	}
	if bursty.PeakToMean() != 10 {
		t.Fatalf("bursty peak/mean = %v", bursty.PeakToMean())
	}
}

func TestTimeSeriesMean(t *testing.T) {
	ts := NewTimeSeries(10)
	if ts.Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
	ts.Add(5, 4)
	ts.Add(15, 2)
	if !almost(ts.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v", ts.Mean())
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ts-bad-width": func() { NewTimeSeries(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-4 square wave: strong positive correlation at lag 4,
	// strong negative at lag 2.
	var xs []float64
	for i := 0; i < 200; i++ {
		if i%4 < 2 {
			xs = append(xs, 1)
		} else {
			xs = append(xs, 0)
		}
	}
	if r := Autocorrelation(xs, 4); r < 0.9 {
		t.Fatalf("lag-4 r = %v, want ~1", r)
	}
	if r := Autocorrelation(xs, 2); r > -0.9 {
		t.Fatalf("lag-2 r = %v, want ~-1", r)
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	if Autocorrelation(nil, 1) != 0 {
		t.Fatal("nil series")
	}
	if Autocorrelation([]float64{5, 5, 5, 5}, 1) != 0 {
		t.Fatal("constant series")
	}
	if Autocorrelation([]float64{1, 2, 3}, 5) != 0 {
		t.Fatal("lag beyond length")
	}
	if Autocorrelation([]float64{1, 2, 3}, 0) != 0 {
		t.Fatal("zero lag must be rejected")
	}
}
