package faults

import (
	"strings"
	"testing"

	"cloudmcp/internal/metrics"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if out := in.Decide(LayerHost, "deploy", 1, 1); out != (Outcome{}) {
		t.Fatalf("nil injector injected %+v", out)
	}
	if u := in.JitterU(1, 1); u != 0 {
		t.Fatalf("nil injector jitter = %v", u)
	}
	in.RegisterMetrics(metrics.NewRegistry()) // must not panic
}

func TestZeroRateLayerDrawsNothing(t *testing.T) {
	in, err := New(7, Config{Host: Layer{FailProb: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The DB layer is all-zero: no decision may be recorded for it.
	for i := int64(0); i < 100; i++ {
		if out := in.Decide(LayerDB, "deploy", i, 1); out != (Outcome{}) {
			t.Fatalf("zero-rate layer injected %+v", out)
		}
	}
	if n := in.stats.DB.Decisions; n != 0 {
		t.Fatalf("zero-rate layer recorded %d decisions", n)
	}
	if n := in.stats.Host.Decisions; n != 0 {
		t.Fatalf("undecided layer recorded %d decisions", n)
	}
}

func TestDecideIsPureFunctionOfIdentifiers(t *testing.T) {
	cfg := Preset(0.3)
	a, err := New(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Consume b's decisions in a scrambled order; outcomes must still
	// match a's decision-by-decision (per-decision derived streams).
	type key struct {
		layer   string
		task    int64
		attempt int
	}
	want := map[key]Outcome{}
	for task := int64(0); task < 50; task++ {
		for attempt := 1; attempt <= 3; attempt++ {
			for _, layer := range []string{LayerHost, LayerDB, LayerStorage} {
				want[key{layer, task, attempt}] = a.Decide(layer, "deploy", task, attempt)
			}
		}
	}
	for task := int64(49); task >= 0; task-- {
		for _, layer := range []string{LayerStorage, LayerDB, LayerHost} {
			for attempt := 3; attempt >= 1; attempt-- {
				got := b.Decide(layer, "deploy", task, attempt)
				if got != want[key{layer, task, attempt}] {
					t.Fatalf("Decide(%s,%d,%d) = %+v, want %+v", layer, task, attempt, got, want[key{layer, task, attempt}])
				}
			}
		}
	}
	if a.JitterU(9, 2) != b.JitterU(9, 2) {
		t.Fatal("jitter draws disagree between identical injectors")
	}
}

func TestPerKindOverride(t *testing.T) {
	in, err := New(1, Config{Host: Layer{FailProb: 1, PerKind: map[string]float64{"destroy": 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if out := in.Decide(LayerHost, "deploy", 1, 1); !out.Fail {
		t.Fatal("FailProb=1 did not fail")
	}
	if out := in.Decide(LayerHost, "destroy", 1, 1); out.Fail {
		t.Fatal("per-kind override 0 still failed")
	}
}

func TestStallDistribution(t *testing.T) {
	in, err := New(3, Config{Storage: Layer{Stall: Stall{Prob: 1, MeanS: 2, CV: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		out := in.Decide(LayerStorage, "deploy", int64(i), 1)
		if out.Fail {
			t.Fatal("stall-only layer injected a failure")
		}
		if out.StallS <= 0 {
			t.Fatalf("stall prob 1 produced no stall at task %d", i)
		}
		sum += out.StallS
	}
	if mean := sum / float64(n); mean < 1.5 || mean > 2.5 {
		t.Fatalf("stall mean %v, want ≈2", mean)
	}
	st := in.stats.Storage
	if st.Stalls != int64(n) || st.StallSeconds <= 0 {
		t.Fatalf("stall stats %+v", st)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	bad := []struct {
		cfg  Config
		want string // in the error text
	}{
		{Config{Host: Layer{FailProb: 1.5}}, "host fail probability"},
		{Config{DB: Layer{FailProb: -0.1}}, "db fail probability"},
		{Config{Storage: Layer{PerKind: map[string]float64{"migrate": 2}}}, "storage per-kind migrate"},
		{Config{Storage: Layer{Stall: Stall{Prob: 0.5}}}, "storage stall mean"}, // stall prob without mean
		{Config{Host: Layer{Stall: Stall{Prob: 0.5, MeanS: 1, CV: -1}}}, "host stall cv"},
		// Two bad per-kind entries: the error names the lexically first,
		// whatever order the map iterates in.
		{Config{Storage: Layer{PerKind: map[string]float64{"migrate": 2, "deploy": 3}}}, "storage per-kind deploy"},
	}
	for i, tc := range bad {
		_, err := New(1, tc.cfg)
		if err == nil {
			t.Fatalf("config %d validated: %+v", i, tc.cfg)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("config %d: error %q, want it to name %q", i, err, tc.want)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	for _, tc := range []struct {
		rate  float64
		draws bool
	}{{0, false}, {0.1, true}} {
		in, err := New(1, Preset(tc.rate))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{LayerHost, LayerDB, LayerStorage} {
			in.Decide(l, "deploy", 1, 1)
		}
		s := in.stats
		if drew := s.Host.Decisions+s.DB.Decisions+s.Storage.Decisions > 0; drew != tc.draws {
			t.Fatalf("Preset(%v) drew = %v, want %v", tc.rate, drew, tc.draws)
		}
	}
	if err := Preset(3).Validate(); err != nil {
		t.Fatalf("Preset clamp failed: %v", err)
	}
}
