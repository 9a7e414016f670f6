// Package stats provides the statistical accumulators the characterization
// pipeline is built on: streaming moments, exact-sample distributions with
// percentiles and CDFs, time-binned series, and burstiness measures.
//
// Accumulators store float64 observations; for the simulator these are
// seconds of virtual time, but nothing in this package assumes a unit.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments accumulates count, mean, and variance in one pass using
// Welford's algorithm, plus min and max. The zero value is ready to use.
type Moments struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (m *Moments) Add(x float64) {
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
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Mean returns the sample mean, or 0 with no observations.
func (m *Moments) Mean() float64 { return m.mean }

// Sum returns the total of all observations.
func (m *Moments) Sum() float64 { return m.mean * float64(m.n) }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (m *Moments) CV() float64 {
	if m.mean == 0 {
		return 0
	}
	return m.StdDev() / m.mean
}

// Min returns the smallest observation (0 with none).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 with none).
func (m *Moments) Max() float64 { return m.max }

// Sample keeps every observation so exact percentiles and CDFs can be
// computed. The simulator's experiment scales (≤ a few million samples)
// make exact storage cheaper than approximate quantile sketches and keep
// results reproducible bit-for-bit. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	mom    Moments
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.mom.Add(x)
}

// Merge records every observation of o.
func (s *Sample) Merge(o *Sample) {
	for _, x := range o.xs {
		s.Add(x)
	}
}

// Count returns the number of observations.
func (s *Sample) Count() int64 { return s.mom.Count() }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return s.mom.Mean() }

// CV returns the coefficient of variation.
func (s *Sample) CV() float64 { return s.mom.CV() }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.mom.Max() }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 with no observations
// and panics for p outside [0,100] or NaN (NaN compares false against
// every bound, so without the explicit check it would silently fall
// through to an arbitrary rank).
func (s *Sample) Percentile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v", p))
	}
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// CDFPoint is one point of an empirical CDF: fraction F of observations
// are <= X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF evaluated at n evenly spaced fractions
// (1/n, 2/n, ..., 1). It returns nil with no observations; n must be > 0.
func (s *Sample) CDF(n int) []CDFPoint {
	if n <= 0 {
		panic(fmt.Sprintf("stats: CDF n=%d", n))
	}
	if len(s.xs) == 0 {
		return nil
	}
	s.ensureSorted()
	out := make([]CDFPoint, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		out[i-1] = CDFPoint{X: s.Percentile(f * 100), F: f}
	}
	return out
}

// TimeSeries bins event counts by fixed-width windows of (virtual) time,
// for rate-over-time plots and burstiness measures. Windows start at 0.
type TimeSeries struct {
	width float64
	bins  []float64
}

// NewTimeSeries creates a series with the given window width (> 0).
func NewTimeSeries(width float64) *TimeSeries {
	if width <= 0 {
		panic(fmt.Sprintf("stats: time series width %v", width))
	}
	return &TimeSeries{width: width}
}

// Add accumulates weight w at finite time t (t >= 0). Use w=1 to count
// events. NaN and +Inf are rejected explicitly: NaN compares false
// against t < 0 and would index with int(NaN) (platform-dependent
// negative), while +Inf would grow the bin slice until the allocator
// gives out.
func (ts *TimeSeries) Add(t, w float64) {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("stats: time %v", t))
	}
	i := int(t / ts.width)
	for len(ts.bins) <= i {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[i] += w
}

// Bins returns a copy of the per-window totals.
func (ts *TimeSeries) Bins() []float64 {
	out := make([]float64, len(ts.bins))
	copy(out, ts.bins)
	return out
}

// Peak returns the largest window total and its index (-1 when empty).
func (ts *TimeSeries) Peak() (float64, int) {
	best, idx := 0.0, -1
	for i, v := range ts.bins {
		if idx == -1 || v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Mean returns the mean window total (0 when empty).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.bins) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ts.bins {
		sum += v
	}
	return sum / float64(len(ts.bins))
}

// IndexOfDispersion returns Var/Mean of the window counts — 1 for a
// Poisson process, >1 for bursty arrivals. Returns 0 when undefined.
func (ts *TimeSeries) IndexOfDispersion() float64 {
	if len(ts.bins) < 2 {
		return 0
	}
	var m Moments
	for _, v := range ts.bins {
		m.Add(v)
	}
	if m.Mean() == 0 {
		return 0
	}
	return m.Variance() / m.Mean()
}

// PeakToMean returns the ratio of the busiest window to the mean window
// (0 when empty), a simple burstiness measure used in the experiment
// tables.
func (ts *TimeSeries) PeakToMean() float64 {
	mean := ts.Mean()
	if mean == 0 {
		return 0
	}
	peak, _ := ts.Peak()
	return peak / mean
}

// Autocorrelation returns the lag-k sample autocorrelation of xs, in
// [-1, 1]. It returns 0 when the series is too short or constant. The
// arrival-series analyses use it to quantify the periodicity of
// management load (diurnal cycles, session batches).
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	mean := m.Mean()
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
