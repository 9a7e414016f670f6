package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cloudmcp/internal/metrics"
)

// WriteMetrics renders a metrics snapshot as plain-text tables:
// resources (in layer order), then scalars and timings, each of those
// two preceded by a blank line. Empty sections and a nil snapshot write
// nothing.
func WriteMetrics(w io.Writer, s *metrics.Snapshot) error {
	if s == nil {
		return nil
	}
	if len(s.Resources) > 0 {
		t := NewTable(fmt.Sprintf("Per-layer resource metrics at t=%.0fs", s.AtS),
			"layer", "resource", "cap", "util", "mean q", "max q", "grants", "mean wait s", "total wait s")
		for _, r := range s.Resources {
			t.AddRow(r.Layer, r.Resource, r.Capacity, r.Utilization, r.MeanQueueLen, r.MaxQueueLen,
				r.Grants, r.MeanWaitS, r.TotalWaitS)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	var rest []*Table
	if len(s.Scalars) > 0 {
		t := NewTable("Scalar metrics", "layer", "resource", "metric", "value")
		for _, r := range s.Scalars {
			t.AddRow(r.Layer, r.Resource, r.Metric, r.Value)
		}
		rest = append(rest, t)
	}
	if len(s.Timings) > 0 {
		t := NewTable("Timing metrics", "layer", "resource", "metric", "n", "mean s", "p50 s", "p95 s", "max s")
		for _, r := range s.Timings {
			t.AddRow(r.Layer, r.Resource, r.Metric, r.Count, r.MeanS, r.P50S, r.P95S, r.MaxS)
		}
		rest = append(rest, t)
	}
	for _, t := range rest {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetricsFile writes the snapshot to path, picking the format from
// the extension: .json → indented JSON, .csv → long-form CSV, anything
// else → the WriteMetrics tables. The close error is propagated so a
// short write cannot pass silently.
func WriteMetricsFile(path string, s *metrics.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		err = s.WriteJSON(f)
	case ".csv":
		err = s.WriteCSV(f)
	default:
		err = WriteMetrics(f, s)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
