package api

import (
	"strings"
	"testing"

	"cloudmcp/internal/core"
)

// TestE22SingleCell runs a deliberately tiny cell end to end: full
// stack boot, live load, teardown, and a rendered artifact with a
// nonzero, separately-attributed API-queueing share.
func TestE22SingleCell(t *testing.T) {
	d := e22Grid{users: []int{10}, ratios: []float64{240}, shards: []int{1}, wallS: 1}
	res, err := d.run(core.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.GoodPerH <= 0 {
		t.Fatalf("no goodput: %+v", row)
	}
	if row.P99S <= 0 || row.P50S > row.P99S {
		t.Fatalf("latency percentiles: %+v", row)
	}
	if row.APIShare <= 0 || row.APIShare >= 1 {
		t.Fatalf("API queueing share not attributed: %+v", row)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E22") || !strings.Contains(sb.String(), "api share") {
		t.Fatalf("artifact:\n%s", sb.String())
	}
}
