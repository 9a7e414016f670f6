package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	h := r.Histogram("l", "r", "m")
	if h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// Every instrument method must be a no-op on a nil receiver.
	h.Observe(0.5)
	r.ResourceFunc("l", "r", nil)
	r.ScalarFunc("l", "r", "m", nil)
	if s := r.Snapshot(10); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}
}

func TestNilInstrumentOpsAllocationFree(t *testing.T) {
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled-path instrument ops allocate %v per run, want 0", allocs)
	}
}

func TestInstrumentLookupIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("mgmt", "tasks", "latency_s")
	b := r.Histogram("mgmt", "tasks", "latency_s")
	if a != b {
		t.Fatal("same key must return the same histogram")
	}
	a.Observe(2)
	if n := b.sample.Count(); n != 1 {
		t.Fatalf("aliased histogram counts %d, want 1", n)
	}
	if r.Histogram("mgmt", "tasks", "wait_s") == a {
		t.Fatal("distinct keys must return distinct histograms")
	}
}

func TestSnapshotOrderingDeterministic(t *testing.T) {
	build := func(order []string) *Snapshot {
		r := NewRegistry()
		for _, name := range order {
			n := name
			r.ScalarFunc("layer", n, "v", func() float64 { return 1 })
		}
		r.ResourceFunc("b", "res", func() ResourceSample { return ResourceSample{Capacity: 1} })
		r.ResourceFunc("a", "res", func() ResourceSample { return ResourceSample{Capacity: 2} })
		return r.Snapshot(1)
	}
	s1 := build([]string{"x", "y", "z"})
	s2 := build([]string{"z", "x", "y"})
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot depends on registration order:\n%s\n%s", j1, j2)
	}
}

func TestZeroCountTimingRendersNA(t *testing.T) {
	r := NewRegistry()
	r.Histogram("mgmt", "tasks", "latency_s") // never observed
	s := r.Snapshot(5)
	if len(s.Timings) != 1 || s.Timings[0].Count != 0 {
		t.Fatalf("timings = %+v", s.Timings)
	}
	if !math.IsNaN(s.Timings[0].P95S) {
		t.Fatalf("zero-count p95 = %v, want NaN", s.Timings[0].P95S)
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatalf("zero-count timing must still encode as JSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	timing := decoded["timings"].([]any)[0].(map[string]any)
	if _, ok := timing["p95_s"]; ok {
		t.Fatalf("zero-count timing JSON should omit percentiles: %v", timing)
	}

	var cs bytes.Buffer
	if err := s.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cs).ReadAll()
	if err != nil {
		t.Fatalf("CSV output must reparse: %v", err)
	}
	foundNA := false
	for _, row := range rows[1:] {
		if row[4] == "n/a" {
			foundNA = true
		}
	}
	if !foundNA {
		t.Fatalf("CSV output lacks n/a rows:\n%s", cs.String())
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("l", "r", "lat_s")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := r.Snapshot(1)
	tr := s.Timings[0]
	if tr.Count != 100 || tr.MaxS != 100 {
		t.Fatalf("timing = %+v", tr)
	}
	if math.Abs(tr.P50S-50.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 50.5", tr.P50S)
	}
}

func TestTopByUtilizationAndWaitShare(t *testing.T) {
	r := NewRegistry()
	add := func(layer, name string, util, wait float64) {
		r.ResourceFunc(layer, name, func() ResourceSample {
			return ResourceSample{Capacity: 1, Utilization: util, TotalWaitS: wait}
		})
	}
	add("mgmt", "threads", 0.50, 10)
	add("host", "agent0", 0.90, 30)
	add("storage", "ds0", 0.90, 60)
	s := r.Snapshot(100)
	top := s.TopByUtilization(2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	// Equal utilization ties break by (layer, resource).
	if top[0].Layer != "host" || top[1].Layer != "storage" {
		t.Fatalf("order = %s, %s", top[0].Layer, top[1].Layer)
	}
	if got := s.TotalQueueWaitS(); got != 100 {
		t.Fatalf("total wait = %v, want 100", got)
	}
}
