package report

import (
	"strings"
	"testing"

	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/reconcile"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("T1: mix", "kind", "count", "frac")
	tb.AddRow("deploy", 120, 0.61234)
	tb.AddRow("powerOn", 80, 0.4)
	out := tb.String()
	if !strings.Contains(out, "T1: mix") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "deploy") || !strings.Contains(out, "0.612") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Separator row is dashes.
	if !strings.Contains(lines[2], "----") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("longvalue", 1)
	tb.AddRow("x", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All data lines should have the same byte offset for column b.
	idx1 := strings.Index(lines[2], "1")
	idx2 := strings.Index(lines[3], "22")
	if idx1 != idx2 {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Fatalf("ragged row dropped:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.23456: "1.235",
		123.456: "123.5",
		1e7:     "1e+07",
		0.00001: "1e-05",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(-123.456); got != "-123.5" {
		t.Fatalf("negative = %q", got)
	}
}

func TestSeriesRender(t *testing.T) {
	s := NewSeries("F1: throughput", "concurrency", "deploys/s")
	s.Add(1, 0.5)
	s.Add(2, 1.0)
	s.Add(4, 1.0)
	out := s.String()
	if !strings.Contains(out, "F1: throughput") || !strings.Contains(out, "concurrency") {
		t.Fatalf("missing labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Max bar is 40 chars, half-value bar is 20.
	if strings.Count(lines[2], "#") != 20 || strings.Count(lines[3], "#") != 40 {
		t.Fatalf("bars wrong:\n%s", out)
	}
}

func TestSeriesZeroMax(t *testing.T) {
	s := NewSeries("flat", "x", "y")
	s.Add(1, 0)
	out := s.String()
	if strings.Contains(out, "#") {
		t.Fatalf("bars for zero series:\n%s", out)
	}
}

func TestSeriesCustomBarWidth(t *testing.T) {
	s := NewSeries("", "x", "y")
	s.BarWidth = 10
	s.Add(1, 5)
	if got := strings.Count(s.String(), "#"); got != 10 {
		t.Fatalf("bar = %d", got)
	}
}

// Edge cases for the derived tables: empty inputs must yield nil (so
// callers can skip rendering), single rows must not divide by zero, and
// an idle snapshot must still rank deterministically.

func renderString(t *testing.T, tb *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGoodputTableEmpty(t *testing.T) {
	if GoodputTable(nil) != nil {
		t.Fatal("empty goodput rows must render as nil")
	}
	if GoodputTable([]mgmt.GoodputRow{}) != nil {
		t.Fatal("zero-length goodput rows must render as nil")
	}
}

func TestGoodputTableSingleRow(t *testing.T) {
	out := renderString(t, GoodputTable([]mgmt.GoodputRow{
		{Kind: ops.KindDeploy, Tasks: 10, OK: 8, Attempts: 14, GiveUps: 2},
	}))
	for _, want := range []string{"deploy", "total", "80.0", "1.4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("goodput table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("goodput table leaked a non-finite value:\n%s", out)
	}
}

func TestGoodputTableZeroTasks(t *testing.T) {
	// A kind that never completed a task: goodput and amplification are
	// undefined and must render as 0, not NaN.
	out := renderString(t, GoodputTable([]mgmt.GoodputRow{{Kind: ops.KindMigrate}}))
	if strings.Contains(out, "NaN") {
		t.Fatalf("zero-task goodput rendered NaN:\n%s", out)
	}
}

func TestBottleneckTableNilSnapshot(t *testing.T) {
	if BottleneckTable(nil, 5) != nil {
		t.Fatal("nil snapshot must render as nil")
	}
	if Bottleneck(nil) != "" {
		t.Fatal("nil snapshot bottleneck must be empty")
	}
}

func TestBottleneckTableEmptySnapshot(t *testing.T) {
	s := &metrics.Snapshot{AtS: 10}
	out := renderString(t, BottleneckTable(s, 5))
	if !strings.Contains(out, "top 0 resources") {
		t.Fatalf("empty snapshot table:\n%s", out)
	}
	if Bottleneck(s) != "" {
		t.Fatal("empty snapshot bottleneck must be empty")
	}
}

func TestBottleneckTableSingleRow(t *testing.T) {
	s := &metrics.Snapshot{Resources: []metrics.ResourceRow{
		{Layer: "mgmt", Resource: "threads", ResourceSample: metrics.ResourceSample{Capacity: 16, Utilization: 0.5, TotalWaitS: 3}},
	}}
	out := renderString(t, BottleneckTable(s, 5))
	if !strings.Contains(out, "threads") || !strings.Contains(out, "100") {
		t.Fatalf("single-row table (expects 100%% wait share):\n%s", out)
	}
	if got := Bottleneck(s); got != "mgmt/threads" {
		t.Fatalf("bottleneck = %q", got)
	}
}

func TestBottleneckTableAllZeroUtilization(t *testing.T) {
	// An idle cloud: no utilization, no queue waits. The ranking must
	// stay deterministic (layer, resource order) and wait shares 0, not
	// NaN from the 0/0 division.
	s := &metrics.Snapshot{Resources: []metrics.ResourceRow{
		{Layer: "mgmt", Resource: "b"},
		{Layer: "mgmt", Resource: "a"},
		{Layer: "host", Resource: "z"},
	}}
	out := renderString(t, BottleneckTable(s, 0))
	if strings.Contains(out, "NaN") {
		t.Fatalf("all-zero snapshot rendered NaN:\n%s", out)
	}
	za := strings.Index(out, "host")
	if za < 0 || za > strings.Index(out, "mgmt") {
		t.Fatalf("all-zero ranking not deterministic:\n%s", out)
	}
	if got := Bottleneck(s); got != "host/z" {
		t.Fatalf("bottleneck tie-break = %q, want host/z", got)
	}
}

func TestShardTableEmpty(t *testing.T) {
	if ShardTable(nil) != nil {
		t.Fatal("empty shard rows must render as nil")
	}
}

func TestCrossShardTableZeroTasks(t *testing.T) {
	if CrossShardTable(0, 0, 0) != nil {
		t.Fatal("cross-shard table with no tasks must render as nil")
	}
	out := renderString(t, CrossShardTable(5, 100, 1.25))
	for _, want := range []string{"cross-shard", "5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cross-shard table missing %q:\n%s", want, out)
		}
	}
}

func TestReconcileTableEmpty(t *testing.T) {
	if ReconcileTable(nil) != nil {
		t.Fatal("empty reconcile rows must render as nil")
	}
	if ReconcileTable([]reconcile.Stats{}) != nil {
		t.Fatal("zero-length reconcile rows must render as nil")
	}
}

func TestReconcileTableSingleRow(t *testing.T) {
	out := renderString(t, ReconcileTable([]reconcile.Stats{
		{Controller: "drift", Runs: 20, Errors: 5, Retries: 4, Drops: 1,
			Queue: reconcile.QueueStats{Dedups: 3, Requeues: 2}, ThrottleS: 7.5, BusyS: 40},
	}))
	for _, want := range []string{"drift", "total", "25.0", "7.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("reconcile table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("reconcile table leaked a non-finite value:\n%s", out)
	}
}

func TestReconcileTableZeroRuns(t *testing.T) {
	// A controller that never ran: the error rate is undefined and must
	// render as 0, not NaN.
	out := renderString(t, ReconcileTable([]reconcile.Stats{{Controller: "catalog"}}))
	if strings.Contains(out, "NaN") {
		t.Fatalf("zero-run reconcile row rendered NaN:\n%s", out)
	}
	if !strings.Contains(out, "catalog") {
		t.Fatalf("controller name missing:\n%s", out)
	}
}
