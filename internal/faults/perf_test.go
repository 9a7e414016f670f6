package faults

import (
	"fmt"
	"testing"

	"cloudmcp/internal/rng"
)

// referenceDecide is the original, allocation-heavy Decide: format the
// label, derive a fresh stream, draw in the fixed order. The production
// path (cached SeedHasher prefixes + Reseeder) must agree with it on
// every outcome — this is the equivalence that keeps E17 and every
// faults-enabled artifact byte-identical.
func referenceDecide(seed int64, cfg Config, layer, kind string, taskID int64, attempt int) Outcome {
	var lc Layer
	switch layer {
	case LayerHost:
		lc = cfg.Host
	case LayerDB:
		lc = cfg.DB
	case LayerStorage:
		lc = cfg.Storage
	}
	failP := lc.failProbFor(kind)
	if failP <= 0 && lc.Stall.Prob <= 0 {
		return Outcome{}
	}
	s := rng.Derive(seed, fmt.Sprintf("fault:%s:%d:%d", layer, taskID, attempt))
	var out Outcome
	if failP > 0 && s.Bernoulli(failP) {
		out.Fail = true
	}
	if lc.Stall.Prob > 0 && s.Bernoulli(lc.Stall.Prob) {
		out.StallS = s.LogNormal(lc.Stall.MeanS, lc.Stall.CV)
	}
	return out
}

func TestDecideMatchesReferenceDerivation(t *testing.T) {
	cfg := Preset(0.2)
	cfg.DB.PerKind = map[string]float64{"deploy": 0.5}
	for _, seed := range []int64{1, 42, -7, 905418259443008068} {
		in, err := New(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range []string{LayerHost, LayerDB, LayerStorage} {
			for taskID := int64(0); taskID < 50; taskID++ {
				for attempt := 1; attempt <= 3; attempt++ {
					got := in.Decide(layer, "deploy", taskID, attempt)
					want := referenceDecide(seed, cfg, layer, "deploy", taskID, attempt)
					if got != want {
						t.Fatalf("Decide(seed=%d %s task=%d attempt=%d) = %+v, want %+v",
							seed, layer, taskID, attempt, got, want)
					}
				}
			}
		}
	}
}

func TestJitterUMatchesReferenceDerivation(t *testing.T) {
	in, err := New(42, Preset(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for taskID := int64(0); taskID < 20; taskID++ {
		for attempt := 1; attempt <= 4; attempt++ {
			got := in.JitterU(taskID, attempt)
			want := rng.Derive(42, fmt.Sprintf("retry:%d:%d", taskID, attempt)).Float64()
			if got != want {
				t.Fatalf("JitterU(task=%d attempt=%d) = %v, want %v", taskID, attempt, got, want)
			}
		}
	}
}

// Golden seeds: the injector's cached per-layer prefixes must keep
// producing exactly the sub-seeds rng.DeriveSeed has always produced for
// "fault:<layer>:<taskID>:<attempt>". Values computed from the original
// fmt-based derivation and hardcoded.
func TestInjectorDerivedSeedsGolden(t *testing.T) {
	golden := []struct {
		label string
		want  int64
	}{
		{"fault:host:1:1", 905418259443008068},
		{"fault:db:17:3", 2502797662279492609},
		{"fault:storage:-5:1", 6855313081034852700},
		{"retry:9:4", 8644708048418715761},
	}
	for _, g := range golden {
		if got := rng.DeriveSeed(42, g.label); got != g.want {
			t.Errorf("DeriveSeed(42, %q) = %d, want %d", g.label, got, g.want)
		}
	}
	in, err := New(42, Preset(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// The injector's cached prefixes extended per-decision must land on
	// the same seeds.
	checks := []struct {
		prefix  rng.SeedHasher
		taskID  int64
		attempt int64
		want    int64
	}{
		{in.hostPrefix, 1, 1, 905418259443008068},
		{in.dbPrefix, 17, 3, 2502797662279492609},
		{in.storPrefix, -5, 1, 6855313081034852700},
		{in.retryPrefix, 9, 4, 8644708048418715761},
	}
	for i, c := range checks {
		if got := c.prefix.Int(c.taskID).Byte(':').Int(c.attempt).Seed(); got != c.want {
			t.Errorf("check %d: cached prefix seed = %d, want %d", i, got, c.want)
		}
	}
}

func TestDecideAllocFree(t *testing.T) {
	in, err := New(42, Preset(0.3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = in.Decide(LayerHost, "deploy", 123, 1)
	})
	if allocs != 0 {
		t.Fatalf("Decide allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_ = in.JitterU(123, 2)
	})
	if allocs != 0 {
		t.Fatalf("JitterU allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkKernelFaultDecide(b *testing.B) {
	in, err := New(42, Preset(0.3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = in.Decide(LayerHost, "deploy", int64(i), 1)
	}
}
