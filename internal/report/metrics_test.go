package report

import (
	"bytes"
	"strings"
	"testing"

	"cloudmcp/internal/metrics"
)

// The snapshot tables keep the layout mcpsim and mcpbench print: three
// titled tables, padded columns, compact floats, n/a for an empty
// distribution.
func TestWriteMetricsLayout(t *testing.T) {
	r := metrics.NewRegistry()
	r.ResourceFunc("mgmt", "threads", func() metrics.ResourceSample {
		return metrics.ResourceSample{Capacity: 16, Utilization: 0.4567, MeanQueueLen: 12345.6, MaxQueueLen: 7,
			Grants: 1200, MeanWaitS: 0.0004, TotalWaitS: 250.25}
	})
	r.ResourceFunc("host", "agent0", func() metrics.ResourceSample { return metrics.ResourceSample{Capacity: 8} })
	r.ScalarFunc("clouddir", "director", "shadow_copies", func() float64 { return 3 })
	r.Histogram("mgmt", "tasks", "latency_s") // never observed
	h := r.Histogram("mgmt", "locks", "wait_s")
	for i := 1; i <= 4; i++ {
		h.Observe(float64(i) / 8)
	}
	var b strings.Builder
	if err := WriteMetrics(&b, r.Snapshot(3600)); err != nil {
		t.Fatal(err)
	}
	want := "Per-layer resource metrics at t=3600s\n" +
		"layer  resource  cap  util   mean q    max q  grants  mean wait s  total wait s\n" +
		"-----  --------  ---  -----  --------  -----  ------  -----------  ------------\n" +
		"host   agent0    8    0      0         0      0       0            0           \n" +
		"mgmt   threads   16   0.457  1.23e+04  7      1200    0.0004       250.2       \n" +
		"\n" +
		"Scalar metrics\n" +
		"layer     resource  metric         value\n" +
		"--------  --------  -------------  -----\n" +
		"clouddir  director  shadow_copies  3.000\n" +
		"\n" +
		"Timing metrics\n" +
		"layer  resource  metric     n  mean s  p50 s  p95 s  max s\n" +
		"-----  --------  ---------  -  ------  -----  -----  -----\n" +
		"mgmt   locks     wait_s     4  0.312   0.312  0.481  0.500\n" +
		"mgmt   tasks     latency_s  0  n/a     n/a    n/a    n/a  \n"
	if got := b.String(); got != want {
		t.Fatalf("WriteMetrics =\n%q\nwant\n%q", got, want)
	}
	if err := WriteMetrics(&b, nil); err != nil || b.String() != want {
		t.Fatalf("nil snapshot wrote %v or changed the output", err)
	}
}

func TestZeroCountTimingRendersNA(t *testing.T) {
	r := metrics.NewRegistry()
	r.Histogram("mgmt", "tasks", "latency_s") // never observed
	var ascii bytes.Buffer
	if err := WriteMetrics(&ascii, r.Snapshot(5)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "n/a") {
		t.Fatalf("ASCII output lacks n/a:\n%s", ascii.String())
	}
	if strings.Contains(ascii.String(), "NaN") {
		t.Fatalf("ASCII output leaks NaN:\n%s", ascii.String())
	}
}

func TestWriteFileFormats(t *testing.T) {
	r := metrics.NewRegistry()
	r.ScalarFunc("l", "r", "m", func() float64 { return 5 })
	s := r.Snapshot(1)
	dir := t.TempDir()
	for _, name := range []string{"snap.json", "snap.csv", "snap.txt"} {
		if err := WriteMetricsFile(dir+"/"+name, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
