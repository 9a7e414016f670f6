package core

// Regression tests for the reconciliation-plane determinism contract:
// with the plane disabled — nil config or a config with no controllers —
// every artifact must be bit-for-bit what it was before the subsystem
// existed; with it enabled, runs must be exactly reproducible and the
// E20 artifact identical across sweep worker counts.

import (
	"bytes"
	"strings"
	"testing"

	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// A reconcile config with no controllers must produce a trace
// byte-identical to a run with no reconcile config at all: the plane
// constructs, registers nothing, and starts nothing.
func TestReconcileDisabledIsIdentity(t *testing.T) {
	run := func(rc *reconcile.Config) []byte {
		cfg := DefaultConfig(3)
		cfg.Reconcile = rc
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), 2*Hour); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := run(nil)
	empty := run(&reconcile.Config{})
	if !bytes.Equal(plain, empty) {
		t.Fatal("controller-less reconcile config perturbed the trace")
	}
}

// With controllers actually reconciling, two identical runs still agree
// exactly — both the operation trace and the per-controller stats.
func TestReconcileEnabledRunsAreDeterministic(t *testing.T) {
	run := func() ([]byte, []reconcile.Stats) {
		cfg := DefaultConfig(3)
		rc := reconcile.DefaultConfig()
		rc.Controllers = reconcile.ControllerNames()
		rc.IntervalS = 600
		rc.DriftRate = 0.1
		cfg.Reconcile = &rc
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), Hour); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.ReconcileStats()
	}
	aTrace, aStats := run()
	bTrace, bStats := run()
	if !bytes.Equal(aTrace, bTrace) {
		t.Fatal("reconcile-enabled runs diverged")
	}
	if len(aStats) != len(bStats) {
		t.Fatalf("stats length diverged: %d vs %d", len(aStats), len(bStats))
	}
	var runs int64
	for i := range aStats {
		if aStats[i] != bStats[i] {
			t.Fatalf("controller %q stats diverged:\n%+v\n%+v", aStats[i].Controller, aStats[i], bStats[i])
		}
		runs += aStats[i].Runs
	}
	if runs == 0 {
		t.Fatal("no reconciliations ran over an hour of CloudA; the test exercised nothing")
	}
}

// renderE20 runs E20 with its grid trimmed to two intervals, one depth
// and one and two shards under 8 clients, over a 120 s horizon.
func renderE20(t *testing.T, workers int) string {
	t.Helper()
	quick := e20Loop{shards: []int{1, 2}, depths: []int{2}, intervalsS: []float64{60, 30}, clients: 8}
	r, err := quick.run(E20Params{Seed: 1, HorizonS: 120, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE20ArtifactIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := renderE20(t, 1)
	parallel := renderE20(t, 8)
	if serial != parallel {
		t.Fatalf("E20 artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"E20: foreground goodput vs reconcile interval x depth x shards",
		"E20: drift storm after a host failure",
		"E20: thundering rebalance on datastore fill",
		"reconciliation plane",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
}
