package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(7, "arrivals")
	b := Derive(7, "arrivals")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,label) diverged")
		}
	}
}

func TestDeriveIndependentLabels(t *testing.T) {
	a := Derive(7, "arrivals")
	b := Derive(7, "service")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("labels not independent: %d identical draws", same)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(4.0)
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("mean = %v, want ~4", mean)
	}
}

func TestExponentialPositive(t *testing.T) {
	s := New(2)
	for i := 0; i < 10000; i++ {
		if v := s.Exponential(1); v < 0 {
			t.Fatalf("negative draw %v", v)
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := New(3)
	const n = 400000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.LogNormal(10, 0.5)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("mean = %v, want ~10", mean)
	}
	if math.Abs(cv-0.5) > 0.05 {
		t.Fatalf("cv = %v, want ~0.5", cv)
	}
}

func TestSkipLogNormalAdvancesLikeLogNormal(t *testing.T) {
	for _, cv := range []float64{0.25, 0} {
		a, b := New(3), New(3)
		for i := 0; i < 50; i++ {
			a.LogNormal(2, cv)
			b.SkipLogNormal(cv)
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("cv %v, draw %d: %v after LogNormal, %v after SkipLogNormal", cv, i, x, y)
			}
		}
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	s := New(4)
	if v := s.LogNormal(7, 0); v != 7 {
		t.Fatalf("cv=0 draw = %v, want exactly 7", v)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(7)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("frac = %v, want ~0.3", frac)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	s := New(8)
	z := NewZipf(s, 4, 0)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.01 {
			t.Fatalf("rank %d frac %v, want ~0.25", i, frac)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(9)
	z := NewZipf(s, 100, 1.0)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50]*10 {
		t.Fatalf("rank0=%d rank50=%d: not skewed", counts[0], counts[50])
	}
}

func TestZipfDrawInRange(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%20) + 1
		z := NewZipf(New(seed), n, 0.9)
		for i := 0; i < 200; i++ {
			if d := z.Draw(); d < 0 || d >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(10)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanicsOnEmpty(t *testing.T) {
	s := New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.WeightedChoice(nil)
}

func TestUniformRange(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Uniform(5, 9)
			if v < 5 || v >= 9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHash32GoldenVectors pins the incremental 32-bit FNV-1a hasher to
// the reference algorithm's published values. The sticky-org placement
// policy maps organizations to datastores through this hash, so these
// constants are part of the reproducibility contract.
func TestHash32GoldenVectors(t *testing.T) {
	golden := map[string]uint32{
		"":     2166136261, // the FNV-1a offset basis
		"a":    3826002220,
		"abc":  440920331,
		"org0": 740390219,
		"org7": 824278314,
		"orgA": 3676370376, // > 2^31: the case int() mishandled on 32-bit
	}
	for s, want := range golden {
		if got := NewHash32().String(s).Sum(); got != want {
			t.Errorf("Hash32(%q) = %d, want %d", s, got, want)
		}
	}
	// The value-type hasher must support prefix caching: hashing "org"
	// once and branching.
	prefix := NewHash32().String("org")
	for _, suffix := range []string{"0", "7", "A"} {
		if got, want := prefix.String(suffix).Sum(), NewHash32().String("org"+suffix).Sum(); got != want {
			t.Errorf("prefix-cached Hash32(org%s) = %d, want %d", suffix, got, want)
		}
	}
}
