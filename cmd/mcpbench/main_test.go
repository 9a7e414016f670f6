package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/metrics"
)

// errWriter fails every write — the shape of a closed pipe or full disk.
// Every rendering path must propagate it so mcpbench exits non-zero
// instead of announcing success for a truncated artifact.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func fakeProbeResult() core.ClosedLoopResult {
	return core.ClosedLoopResult{
		DeploysPerHour: 120, MeanLatencyS: 30, P95LatencyS: 60,
		Metrics: &metrics.Snapshot{},
	}
}

func TestProbeReportPropagatesWriteError(t *testing.T) {
	err := probeReport(errWriter{}, fakeProbeResult(), 64, 1800, "")
	if err == nil || !strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("probeReport on failing writer = %v, want the write error", err)
	}
}

func TestProbeReportWritesSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := probeReport(&buf, fakeProbeResult(), 64, 1800, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metrics probe", "64 closed-loop workers", "deploys/hour 120.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("probe report %q missing %q", out, want)
		}
	}
}

func TestLadderRungs(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1000, []int{1000}},
		{10000, []int{1000, 10000}},
		{1000000, []int{1000, 10000, 100000, 1000000}},
		{250000, []int{1000, 10000, 100000, 250000}},
		{500, []int{500}}, // bench-inventory allows tiny rungs
	}
	for _, c := range cases {
		got := ladder(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

func TestValidateScaleFlag(t *testing.T) {
	cases := []struct {
		scaleTo  int
		benchInv string
		ok       bool
	}{
		{0, "", true},           // off
		{1000000, "", true},     // full ladder
		{-1, "", false},         // negative
		{500, "", false},        // below the smallest E19 rung
		{500, "out.json", true}, // tiny rung is fine for the wall-clock bench
	}
	for _, c := range cases {
		err := validateScaleFlag(c.scaleTo, c.benchInv)
		if (err == nil) != c.ok {
			t.Errorf("validateScaleFlag(%d, %q) = %v, want ok=%v", c.scaleTo, c.benchInv, err, c.ok)
		}
	}
}

func TestBenchInventoryTinyRung(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock benchmarks")
	}
	var buf bytes.Buffer
	if err := benchInventory(&buf, "-", 200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"\"suite\": \"inventory\"", "indexed_place_cycle_ns_per_op", "linear_place_cycle_ns_per_op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench-inventory output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteInvBenchReportPropagatesWriteError(t *testing.T) {
	rep := invBenchReport{Suite: "inventory"}
	if err := writeInvBenchReport(errWriter{}, rep); err == nil {
		t.Fatal("writeInvBenchReport on failing writer = nil, want error")
	}
}

func TestValidateReconcileFlags(t *testing.T) {
	cases := []struct {
		intervalS float64
		depth     int
		ok        bool
	}{
		{0, 0, true},   // zero = default grid
		{60, 0, true},  // custom interval, default depth
		{0, 4, true},   // default grid, pinned depth
		{60, 4, true},  // both pinned
		{-1, 0, false}, // negative interval
		{0, -2, false}, // negative depth
	}
	for _, c := range cases {
		err := validateReconcileFlags(c.intervalS, c.depth)
		if (err == nil) != c.ok {
			t.Errorf("validateReconcileFlags(%g, %d) = %v, want ok=%v", c.intervalS, c.depth, err, c.ok)
		}
	}
}
