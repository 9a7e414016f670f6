package core

// Regression tests for the fault-injection determinism contract:
// with faults enabled, runs must be exactly reproducible (E17's
// artifact across sweep worker counts is a row of
// TestArtifactsIdenticalAcrossWorkerCounts); with faults disabled — nil
// config or all-zero rates — behaviour must be bit-for-bit what it was
// before faults existed.

import (
	"bytes"
	"testing"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// A zero-rate faults config (with the retry policy armed) must produce a
// trace byte-identical to a run with no faults configured at all.
func TestFaultsDisabledEquivalence(t *testing.T) {
	run := func(fc *faults.Config) []byte {
		cfg := DefaultConfig(3)
		cfg.Faults = fc
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
	zero := run(&faults.Config{})
	if !bytes.Equal(plain, zero) {
		t.Fatal("zero-rate faults config perturbed the trace")
	}
	preset := run(func() *faults.Config { c := faults.Preset(0); return &c }())
	if !bytes.Equal(plain, preset) {
		t.Fatal("Preset(0) faults config perturbed the trace")
	}
}

// With faults actually firing, two identical runs still agree exactly.
func TestFaultsEnabledRunsAreDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig(3)
		fc := faults.Preset(0.2)
		cfg.Faults = &fc
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), Hour); err != nil {
			t.Fatal(err)
		}
		return csvTrace(t, c.Records())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("fault-enabled runs diverged")
	}
	if !bytes.Contains(a, []byte("faults: injected")) && !bytes.Contains(a, []byte("giving up")) {
		// Not fatal by itself, but at preset 0.2 over an hour of CloudA
		// some task should have exhausted its retries.
		t.Log("no give-ups in trace; fault rate may be too low for this horizon")
	}
}

// csvTrace renders records in the CSV trace format, the byte form the
// determinism tests compare.
func csvTrace(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewCSVWriter(&buf)
	for i := range recs {
		w.Write(&recs[i]) // errors are sticky; Flush reports them
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
