package rng

import "math/rand"

// Parameters of math/rand's rngSource: an additive lagged Fibonacci
// generator over 607 registers with tap 273, whose Seed fills the
// registers from the Lehmer generator x ← 48271·x mod (2^31−1).
const (
	regLen   = 607
	regTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	seedZero = 89482311 // what rngSource.Seed seeds with in place of 0
	int63Max = 1<<63 - 1
)

var (
	// jump[i][k] is 48271^(21+3i+k) mod (2^31−1). rngSource.Seed skips
	// 20 Lehmer states and then spends three per register, so register i
	// is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, and each of those states is
	// one modular multiply of the reduced seed x₀ by its jump.
	jump [regLen][3]uint64
	// cooked is the constant rngSource.Seed XORs into each register.
	cooked [regLen]int64
)

func init() {
	a := uint64(1)
	for n := 0; n < 20; n++ {
		a = a * lehmerA % lehmerM
	}
	for i := range jump {
		for k := range jump[i] {
			a = a * lehmerA % lehmerM
			jump[i][k] = a
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads the cooked table back out of the standard library
// rather than copying it: it reconstructs the registers
// rand.NewSource(1) was seeded with from its first 607 outputs and XORs
// off their Lehmer part. Output k (1-based) adds the tap register to the
// feed register (334−k) mod 607 and stores the sum there. From output
// 274 on, the tap register holds output k−273, which gives the feed
// registers 60…0 and 606…334 directly; outputs 1–273 read untouched tap
// registers 606…334, now known, which gives registers 333…61.
func recoverCooked() [regLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]int64
	for k := 1; k <= regLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var reg [regLen]int64
	for k := regTap + 1; k <= regLen; k++ {
		reg[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		reg[regLen-regTap-k] = out[k] - reg[regLen-k]
	}
	var c [regLen]int64
	for i := range c {
		c[i] = reg[i] ^ lehmerPart(1, i)
	}
	return c
}

// lehmerPart is the part of register i that rngSource.Seed derives from
// the reduced seed x0, before the cooked constant.
func lehmerPart(x0 uint64, i int) int64 {
	j := &jump[i]
	return int64(j[0]*x0%lehmerM)<<40 ^ int64(j[1]*x0%lehmerM)<<20 ^ int64(j[2]*x0%lehmerM)
}

// lazySource is math/rand's rngSource, output for output, with an O(1)
// Seed. Seed only records the reduced seed and starts a new generation;
// a register is computed from the seed on its first read in the
// generation, which is what rngSource.Seed would have stored there. A
// stream that draws a few values (one fault decision, one backoff)
// touches a few registers instead of filling all 607.
type lazySource struct {
	x0        uint64 // the seed reduced as rngSource.Seed reduces it
	gen       uint64 // bumped by every Seed
	tap, feed int
	reg       [regLen]register
}

var _ rand.Source64 = (*lazySource)(nil)

// register is one feedback register and the generation that wrote it.
type register struct {
	v   int64
	gen uint64
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed positions the source exactly as rngSource.Seed(seed) would.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.gen++
	s.tap, s.feed = 0, regLen-regTap
}

// at returns register i, computing it if this generation has not yet
// read or written it.
func (s *lazySource) at(i int) int64 {
	r := &s.reg[i]
	if r.gen != s.gen {
		r.v, r.gen = lehmerPart(s.x0, i)^cooked[i], s.gen
	}
	return r.v
}

// Uint64 is rngSource.Uint64 over lazily computed registers.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.at(s.feed) + s.at(s.tap)
	s.reg[s.feed].v = x
	return uint64(x)
}

// Int63 is rngSource.Int63: Uint64 with the top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & int63Max) }
