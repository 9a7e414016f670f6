package metrics

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
)

// ResourceRow is one contended resource's snapshot.
type ResourceRow struct {
	Layer    string `json:"layer"`
	Resource string `json:"resource"`
	ResourceSample
}

// MarshalJSON flattens the embedded sample so the JSON form is one flat
// object per resource.
func (r ResourceRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"layer":          r.Layer,
		"resource":       r.Resource,
		"capacity":       r.Capacity,
		"utilization":    r.Utilization,
		"mean_queue_len": r.MeanQueueLen,
		"max_queue_len":  r.MaxQueueLen,
		"grants":         r.Grants,
		"mean_wait_s":    r.MeanWaitS,
		"total_wait_s":   r.TotalWaitS,
	})
}

// ScalarRow is one scalar probe's value.
type ScalarRow struct {
	Layer    string  `json:"layer"`
	Resource string  `json:"resource"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
}

// TimingRow is one latency distribution's summary. Percentile fields are
// NaN when Count is zero (rendered as "n/a", omitted from JSON).
type TimingRow struct {
	Layer    string  `json:"layer"`
	Resource string  `json:"resource"`
	Metric   string  `json:"metric"`
	Count    int64   `json:"count"`
	MeanS    float64 `json:"mean_s"`
	P50S     float64 `json:"p50_s"`
	P95S     float64 `json:"p95_s"`
	MaxS     float64 `json:"max_s"`
}

// MarshalJSON omits the undefined distribution summary of a zero-count
// timing instead of emitting NaN (which encoding/json rejects).
func (t TimingRow) MarshalJSON() ([]byte, error) {
	m := map[string]any{
		"layer":    t.Layer,
		"resource": t.Resource,
		"metric":   t.Metric,
		"count":    t.Count,
	}
	if t.Count > 0 {
		m["mean_s"], m["p50_s"], m["p95_s"], m["max_s"] = t.MeanS, t.P50S, t.P95S, t.MaxS
	}
	return json.Marshal(m)
}

// Snapshot is an immutable evaluation of a registry at one virtual time.
type Snapshot struct {
	AtS       float64       `json:"at_s"`
	Resources []ResourceRow `json:"resources,omitempty"`
	Scalars   []ScalarRow   `json:"scalars,omitempty"`
	Timings   []TimingRow   `json:"timings,omitempty"`
}

// TopByUtilization returns the k most-utilized resources, ties broken by
// (layer, resource) so the ranking is deterministic.
func (s *Snapshot) TopByUtilization(k int) []ResourceRow {
	if s == nil {
		return nil
	}
	rows := append([]ResourceRow(nil), s.Resources...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Utilization != rows[j].Utilization {
			return rows[i].Utilization > rows[j].Utilization
		}
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Resource < rows[j].Resource
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TotalQueueWaitS returns the sum of queue-wait seconds across all
// resources — the denominator of each resource's queue-wait share.
func (s *Snapshot) TotalQueueWaitS() float64 {
	if s == nil {
		return 0
	}
	total := 0.0
	for _, r := range s.Resources {
		total += r.TotalWaitS
	}
	return total
}

// WriteJSON renders the snapshot as one indented JSON object.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders the snapshot in long form: one row per (section,
// layer, resource, metric) with a shared header. The flush error is
// checked so a failed writer cannot silently truncate the artifact.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"section", "layer", "resource", "metric", "value", "count"}); err != nil {
		return err
	}
	f := func(v float64) string {
		if math.IsNaN(v) {
			return "n/a"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	if s != nil {
		for _, r := range s.Resources {
			base := func(metric string, v float64) []string {
				return []string{"resource", r.Layer, r.Resource, metric, f(v), strconv.FormatInt(r.Grants, 10)}
			}
			for _, row := range [][]string{
				base("utilization", r.Utilization),
				base("mean_queue_len", r.MeanQueueLen),
				base("max_queue_len", float64(r.MaxQueueLen)),
				base("mean_wait_s", r.MeanWaitS),
				base("total_wait_s", r.TotalWaitS),
			} {
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
		for _, r := range s.Scalars {
			if err := cw.Write([]string{"scalar", r.Layer, r.Resource, r.Metric, f(r.Value), ""}); err != nil {
				return err
			}
		}
		for _, r := range s.Timings {
			for _, mv := range []struct {
				name string
				v    float64
			}{{"mean_s", r.MeanS}, {"p50_s", r.P50S}, {"p95_s", r.P95S}, {"max_s", r.MaxS}} {
				row := []string{"timing", r.Layer, r.Resource, r.Metric + "." + mv.name, f(mv.v), strconv.FormatInt(r.Count, 10)}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
