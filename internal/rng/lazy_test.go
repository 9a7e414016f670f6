package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds at the corners of rngSource.Seed's reduction:
// zero and the multiples of 2^31−1 (both reduce to 0 and are replaced by
// 89482311), the seed that replacement names, values just inside and
// outside the modulus, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1,
	lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM,
	lehmerM - 1, lehmerM + 1, -(lehmerM - 1), -(lehmerM + 1),
	seedZero, -seedZero,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// checkSource compares the first n outputs of a lazySource, seeded in
// place, with those of rand.NewSource(seed).
func checkSource(t testing.TB, lazy *lazySource, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	lazy.Seed(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), lazy.Uint64(); w != g {
			t.Fatalf("seed %d output %d: lazySource %#x, rand.NewSource %#x", seed, i, g, w)
		}
	}
}

// One lazySource re-seeded 10^5 times over the whole int64 range matches
// the stdlib on the first 8 outputs of every seed: the draws a fault
// decision or a backoff makes, read through registers left stale by the
// previous generation.
func TestLazySourceMatchesStdlibFirstOutputs(t *testing.T) {
	seeds := rand.New(rand.NewSource(20240607))
	lazy := newLazySource(0)
	for i := 0; i < 100000; i++ {
		seed := int64(seeds.Uint64())
		if i%4 == 0 {
			seed >>= 32 // small magnitudes, both signs
		}
		checkSource(t, lazy, seed, 8)
	}
}

// Long streams cross the 607-register wrap twice, so every register is
// read after the source itself has rewritten it.
func TestLazySourceMatchesStdlibLongStreams(t *testing.T) {
	lazy := newLazySource(0)
	for _, seed := range edgeSeeds {
		checkSource(t, lazy, seed, 1500)
	}
	seeds := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		checkSource(t, lazy, int64(seeds.Uint64()), 1500)
	}
}

// FuzzReseederMatchesNew checks that a Reseeder, left at an unrelated
// seed part way through its stream, yields exactly New(seed)'s 64-bit
// outputs after Reseed(seed).
func FuzzReseederMatchesNew(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(1500))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		rs := NewReseeder()
		prev := rs.Reseed(^seed)
		for i := 0; i < int(draws)%regLen; i++ {
			prev.r.Uint64()
		}
		fresh, cached := New(seed), rs.Reseed(seed)
		for i := 0; i < int(draws); i++ {
			if w, g := fresh.r.Uint64(), cached.r.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Reseeder %#x, New %#x", seed, i, g, w)
			}
		}
	})
}
