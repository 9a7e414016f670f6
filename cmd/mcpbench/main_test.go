package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// TestEveryExperimentResolvesOnce checks that each of E1..E22 resolves to
// exactly one row through lookup, the resolution -only uses, and that an
// unknown name fails naming the valid range. It resolves names only:
// E22 measures the wall clock.
func TestEveryExperimentResolvesOnce(t *testing.T) {
	rows := map[string]int{}
	for _, e := range experiments() {
		rows[e.Name]++
	}
	for i := 1; i <= 22; i++ {
		name := fmt.Sprintf("E%d", i)
		if rows[name] != 1 {
			t.Errorf("%s names %d rows, want 1", name, rows[name])
		}
		if e, err := lookup(name); err != nil || e.Name != name || e.Run == nil {
			t.Errorf("lookup(%q) = %q, %v", name, e.Name, err)
		}
	}
	if len(rows) != 22 {
		t.Errorf("-only names %d experiments, want E1..E22: %v", len(rows), rows)
	}
	err := run(io.Discard, options{only: "E99", quick: true})
	if err == nil || !strings.Contains(err.Error(), "want E1..E22)") {
		t.Fatalf("-only E99: err = %v, want an unknown-experiment error naming E1..E22", err)
	}
}
