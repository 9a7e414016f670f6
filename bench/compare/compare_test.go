package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"cloudmcp/bench/ledger"
)

var (
	lower  = ledger.Metric{Name: "lat_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	higher = ledger.Metric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
)

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		m      ledger.Metric
		change []float64
		want   string
	}{
		{"identical", lower, base, "same"},
		{"within noise", lower, scale(base, 1.01), "same"},
		{"slower beyond bound", lower, scale(base, 1.2), "regression"},
		{"faster on every pair", lower, scale(base, 0.9), "gain"},
		{"throughput up", higher, scale(base, 1.1), "gain"},
		{"throughput down beyond bound", higher, scale(base, 0.85), "regression"},
		// Eight of ten pairs win: not enough for a gain.
		{"too few wins", lower, []float64{95, 96, 94, 95, 97, 93, 95, 96, 103, 104}, "same"},
		// Spread wider than the bound: unresolved unless every run is better.
		{"wide spread", lower, []float64{80, 120, 70, 130, 100, 60, 140, 100, 90, 110}, "unresolved"},
		{"wide spread, all better", lower, []float64{50, 60, 70, 80, 90, 55, 65, 75, 85, 95}, "gain"},
	} {
		if got := verdict(tc.m, base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func runs(workload string, digest string, failed int64, vals ...float64) []ledger.Run {
	var out []ledger.Run
	for i, v := range vals {
		out = append(out, ledger.Run{
			Workload: workload, Seed: int64(i%2 + 1), Digest: digest + string(rune('0'+i%2)),
			Ops: 1000, OpsFailed: failed,
			Result: ledger.Result{Correct: true, Attempted: 1, Metrics: map[string]ledger.Value{
				"lat_ms_p50": {Value: v, Unit: "ms"}, "ops_per_s": {Value: 1000 / v, Unit: "1/s"},
			}},
		})
	}
	return out
}

func TestCompareSets(t *testing.T) {
	spec := &ledger.Spec{
		Workloads: []ledger.Workload{{Name: "w"}},
		EndToEnd:  []ledger.Metric{lower, higher},
	}
	vals := []float64{10, 10.1, 9.9, 10, 10.2, 9.8}
	for _, tc := range []struct {
		name   string
		change []ledger.Run
		ok     bool
		want   string
	}{
		{"same code", runs("w", "d", 2, vals...), true, "same"},
		{"regression", runs("w", "d", 2, 12, 12.1, 11.9, 12, 12.2, 11.8), false, "regression"},
		{"digest mismatch", runs("w", "x", 2, vals...), false, "digest"},
		{"failure share rose", runs("w", "d", 3, vals...), false, "failure share rose"},
	} {
		var out bytes.Buffer
		if ok := compare(&out, spec, runs("w", "d", 2, vals...), tc.change); ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v, output:\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}

func TestRunReadsSetFiles(t *testing.T) {
	dir := t.TempDir()
	base, next := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := ledger.WriteSet(base, runs("deploy-loop", "d", 0, 10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := ledger.WriteSet(next, runs("deploy-loop", "d", 0, 10, 11)); err != nil {
		t.Fatal(err)
	}
	// The checked-in BENCHMARK.json names workloads these sets lack, so
	// the comparison fails; the files themselves must load.
	var out bytes.Buffer
	if _, err := run(&out, "../../BENCHMARK.json", base, next); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deploy-loop") {
		t.Errorf("output lacks the workload:\n%s", out.String())
	}
}
