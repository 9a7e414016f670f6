// Package ledger holds what the benchmark runner and the comparator
// share: the BENCHMARK.json spec, the result records a run produces, and
// the order statistics both compute them with.
package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Spec is the part of the repository's BENCHMARK.json the benchmark
// reads: how long a run measures, the workloads, and every metric with
// its unit, direction and regression bound.
type Spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names one input set and why the benchmark has it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric describes one reported number. Better ("lower"/"higher") and
// Bound (the share of the parent's median by which it may worsen) are
// set for end-to-end metrics only.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads and sanity-checks a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("ledger: %s: metric %s has better=%q", path, m.Name, m.Better)
		}
		if m.Bound <= 0 {
			return nil, fmt.Errorf("ledger: %s: metric %s has no bound", path, m.Name)
		}
	}
	return &s, nil
}

// Value is one reported metric value with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Run is one benchmark run as a set file records it: the printed result
// plus what the comparator needs to judge correctness and noise.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Digest identifies the simulated output (empty for the wall-clock
	// serving workload); equal seeds must give equal digests.
	Digest string `json:"digest,omitempty"`
	// Ops and OpsFailed count the workload's operations (simulated tasks,
	// or HTTP requests for the serving workload) and those that failed;
	// their ratio is the failure share.
	Ops       int64  `json:"ops"`
	OpsFailed int64  `json:"ops_failed"`
	Result    Result `json:"result"`
	// Spread summarizes each metric across the run's repetitions.
	Spread map[string]Summary `json:"spread,omitempty"`
}

// ReadSet reads a set file: a JSON array of runs.
func ReadSet(path string) ([]Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read set: %w", err)
	}
	var runs []Run
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("ledger: parse set %s: %w", path, err)
	}
	return runs, nil
}

// WriteSet writes runs as an indented JSON array.
func WriteSet(path string, runs []Run) error {
	b, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: encode set: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("ledger: write set: %w", err)
	}
	return nil
}

// Summary is a sample's order statistics.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Spread is the inter-quartile range as a share of the median (0 when
// the median is 0).
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Summarize computes the order statistics of xs (the zero Summary for
// an empty sample). The quartiles follow the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), so the spreads this benchmark
// reports match the ones its acceptance check computes; a single value
// is all three quartiles.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	q1, q2, q3 := quartiles(s)
	return Summary{Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quartiles of a sorted, non-empty sample.
func quartiles(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty sample): the smallest value with at least p percent of the
// sample at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n values.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		return 1
	}
	if r > n {
		return n
	}
	return r
}

// TailReportable reports whether the p-th percentile of n samples has at
// least ten samples beyond it — the rule for which tail percentile a
// sample of that size can support.
func TailReportable(p float64, n int) bool {
	return n-rank(p, n) >= 10
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
