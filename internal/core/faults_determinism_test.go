package core

// Regression tests for the fault-injection determinism contract:
// with faults enabled, artifacts must be byte-identical across sweep
// worker counts (per-decision derived streams, same discipline as the
// sweep engine); with faults disabled — nil config or all-zero rates —
// behaviour must be bit-for-bit what it was before faults existed.

import (
	"bytes"
	"strings"
	"testing"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// renderE17 runs E17 trimmed to three fault rates and 8 clients over a
// 120 s horizon.
func renderE17(t *testing.T, workers int) string {
	t.Helper()
	quick := e17Loop{rates: []float64{0, 0.1, 0.3}, clients: 8}
	r, err := quick.run(E17Params{Seed: 1, HorizonS: 120, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE17ArtifactIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := renderE17(t, 1)
	parallel := renderE17(t, 8)
	if serial != parallel {
		t.Fatalf("E17 artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"E17: closed-loop deploy goodput vs injected fault rate",
		"E17: HA restart storm on a faulty control plane",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
}

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
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
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
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
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

func TestExtensionRegistryCoversOptIns(t *testing.T) {
	exts := Extensions()
	want := []string{"E17", "E18", "E19", "E20", "E21"}
	if len(exts) != len(want) {
		t.Fatalf("extensions = %+v, want %v", exts, want)
	}
	for i, name := range want {
		if exts[i].Name != name {
			t.Fatalf("extensions[%d] = %q, want %q", i, exts[i].Name, name)
		}
	}
	for _, e := range Experiments() {
		for _, name := range want {
			if e.Name == name {
				t.Fatalf("%s leaked into the default suite; default artifacts would change", name)
			}
		}
	}
}
