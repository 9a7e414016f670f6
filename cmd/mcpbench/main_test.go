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
