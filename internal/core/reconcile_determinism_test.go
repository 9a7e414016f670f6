package core

// Regression tests for the reconciliation-plane determinism contract:
// with the plane disabled — nil config or a config with no controllers —
// every artifact must be bit-for-bit what it was before the subsystem
// existed; with it enabled, runs must be exactly reproducible (the E20
// artifact across sweep worker counts is a row of
// TestArtifactsIdenticalAcrossWorkerCounts).

import (
	"bytes"
	"testing"

	"cloudmcp/internal/reconcile"
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
		return csvTrace(t, c.Records())
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
		return csvTrace(t, c.Records()), c.ReconcileStats()
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
