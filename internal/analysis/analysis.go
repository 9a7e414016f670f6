// Package analysis is the workload-characterization pipeline: it turns a
// management-operation trace into the quantities the paper reports —
// operation mixes, arrival-rate series and burstiness, interarrival CDFs,
// and per-layer latency breakdowns.
package analysis

import (
	"sort"

	"cloudmcp/internal/ops"
	"cloudmcp/internal/stats"
	"cloudmcp/internal/trace"
)

// FilterKind returns the records of one operation kind.
func FilterKind(records []trace.Record, kind string) []trace.Record {
	var out []trace.Record
	for _, r := range records {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// FilterTime returns the records submitted in [from, to).
func FilterTime(records []trace.Record, from, to float64) []trace.Record {
	var out []trace.Record
	for _, r := range records {
		if r.Submit >= from && r.Submit < to {
			out = append(out, r)
		}
	}
	return out
}

// FilterOK returns records that completed without error.
func FilterOK(records []trace.Record) []trace.Record {
	var out []trace.Record
	for _, r := range records {
		if r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

// MixRow is one line of an operation-mix table.
type MixRow struct {
	Kind   string
	Count  int
	Frac   float64 // of all records
	Errors int
}

// OpMix tabulates operation counts by kind, in canonical kind order
// followed by any unknown kinds alphabetically.
func OpMix(records []trace.Record) []MixRow {
	counts := map[string]*MixRow{}
	for _, r := range records {
		row, ok := counts[r.Kind]
		if !ok {
			row = &MixRow{Kind: r.Kind}
			counts[r.Kind] = row
		}
		row.Count++
		if r.Err != "" {
			row.Errors++
		}
	}
	var out []MixRow
	seen := map[string]bool{}
	for _, k := range ops.Kinds() {
		if row, ok := counts[k.String()]; ok {
			out = append(out, *row)
			seen[k.String()] = true
		}
	}
	var rest []string
	for k := range counts {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		out = append(out, *counts[k])
	}
	if len(records) > 0 {
		for i := range out {
			out[i].Frac = float64(out[i].Count) / float64(len(records))
		}
	}
	return out
}

// RateSeries bins submissions into windows of binS seconds. Pass kind ""
// for all operations.
func RateSeries(records []trace.Record, binS float64, kind string) *stats.TimeSeries {
	ts := stats.NewTimeSeries(binS)
	for _, r := range records {
		if kind != "" && r.Kind != kind {
			continue
		}
		ts.Add(r.Submit, 1)
	}
	return ts
}

// Interarrivals returns the gaps between consecutive submissions of the
// given kind ("" for all), in submit order.
func Interarrivals(records []trace.Record, kind string) *stats.Sample {
	var times []float64
	for _, r := range records {
		if kind != "" && r.Kind != kind {
			continue
		}
		times = append(times, r.Submit)
	}
	sort.Float64s(times)
	s := &stats.Sample{}
	for i := 1; i < len(times); i++ {
		s.Add(times[i] - times[i-1])
	}
	return s
}

// LatencyRow summarizes latency for one kind.
type LatencyRow struct {
	Kind          string
	Count         int
	MeanLatency   float64
	P50Latency    float64
	P95Latency    float64
	MaxLatency    float64
	MeanBreakdown ops.Breakdown
}

// LatencyByKind summarizes successful operations per kind, canonical
// order.
func LatencyByKind(records []trace.Record) []LatencyRow {
	byKind := map[string][]trace.Record{}
	for _, r := range records {
		if r.Err != "" {
			continue
		}
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	var out []LatencyRow
	for _, k := range ops.Kinds() {
		recs := byKind[k.String()]
		if len(recs) == 0 {
			continue
		}
		var lat stats.Sample
		var sum ops.Breakdown
		for _, r := range recs {
			lat.Add(r.Latency)
			sum = sum.Add(r.Breakdown())
		}
		out = append(out, LatencyRow{
			Kind:          k.String(),
			Count:         len(recs),
			MeanLatency:   lat.Mean(),
			P50Latency:    lat.Median(),
			P95Latency:    lat.Percentile(95),
			MaxLatency:    lat.Max(),
			MeanBreakdown: sum.Scale(1 / float64(len(recs))),
		})
	}
	return out
}

// ControlShare returns the fraction of a breakdown spent off the data
// plane (everything except Data). This is the paper's "control plane is
// the limiting factor" measure.
func ControlShare(b ops.Breakdown) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (t - b.Data) / t
}

// Burstiness summarizes an arrival series.
type Burstiness struct {
	MeanPerBin        float64
	PeakPerBin        float64
	PeakToMean        float64
	IndexOfDispersion float64
}

// MeasureBurstiness computes burstiness of submissions at the given bin
// width ("" kind = all).
func MeasureBurstiness(records []trace.Record, binS float64, kind string) Burstiness {
	ts := RateSeries(records, binS, kind)
	peak, _ := ts.Peak()
	return Burstiness{
		MeanPerBin:        ts.Mean(),
		PeakPerBin:        peak,
		PeakToMean:        ts.PeakToMean(),
		IndexOfDispersion: ts.IndexOfDispersion(),
	}
}

// Throughput returns successfully completed operations of the given kind
// ("" for all) per second over [from, to), measured by completion time.
func Throughput(records []trace.Record, kind string, from, to float64) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, r := range records {
		if r.Err != "" || (kind != "" && r.Kind != kind) {
			continue
		}
		if r.End >= from && r.End < to {
			n++
		}
	}
	return float64(n) / (to - from)
}

// LatencySample collects the latencies of successful records of a kind
// ("" for all) into a Sample for percentile/CDF work.
func LatencySample(records []trace.Record, kind string) *stats.Sample {
	s := &stats.Sample{}
	for _, r := range records {
		if r.Err != "" || (kind != "" && r.Kind != kind) {
			continue
		}
		s.Add(r.Latency)
	}
	return s
}

// MeanBreakdown averages the breakdowns of successful records of a kind
// ("" for all); the boolean reports whether any matched.
func MeanBreakdown(records []trace.Record, kind string) (ops.Breakdown, bool) {
	var sum ops.Breakdown
	n := 0
	for _, r := range records {
		if r.Err != "" || (kind != "" && r.Kind != kind) {
			continue
		}
		sum = sum.Add(r.Breakdown())
		n++
	}
	if n == 0 {
		return ops.Breakdown{}, false
	}
	return sum.Scale(1 / float64(n)), true
}

// OrgRow summarizes one tenant's management activity.
type OrgRow struct {
	Org            string
	Ops            int
	Frac           float64
	Deploys        int
	MeanDeployLatS float64
	Errors         int
}

// PerOrg tabulates activity by tenant, busiest first; ties break
// alphabetically so output is deterministic.
func PerOrg(records []trace.Record) []OrgRow {
	byOrg := map[string]*OrgRow{}
	deployLat := map[string]*stats.Sample{}
	for _, r := range records {
		row, ok := byOrg[r.Org]
		if !ok {
			row = &OrgRow{Org: r.Org}
			byOrg[r.Org] = row
			deployLat[r.Org] = &stats.Sample{}
		}
		row.Ops++
		if r.Err != "" {
			row.Errors++
		}
		if r.Kind == ops.KindDeploy.String() && r.Err == "" {
			row.Deploys++
			deployLat[r.Org].Add(r.Latency)
		}
	}
	out := make([]OrgRow, 0, len(byOrg))
	for org, row := range byOrg {
		if s := deployLat[org]; s.Count() > 0 {
			row.MeanDeployLatS = s.Mean()
		}
		if len(records) > 0 {
			row.Frac = float64(row.Ops) / float64(len(records))
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Org < out[j].Org
	})
	return out
}

// DiurnalProfile returns mean operations per hour-of-day, averaged over
// the whole days the trace spans (partial trailing days still contribute
// to the hours they cover).
func DiurnalProfile(records []trace.Record) [24]float64 {
	var sums [24]float64
	var days [24]float64
	maxT := 0.0
	for _, r := range records {
		if r.Submit > maxT {
			maxT = r.Submit
		}
	}
	// How many times each hour-of-day occurs within [0, maxT].
	for h := 0; h < 24; h++ {
		start := float64(h) * 3600
		for d := 0.0; d*86400+start < maxT; d++ {
			days[h]++
		}
	}
	for _, r := range records {
		h := int(r.Submit/3600) % 24
		sums[h]++
	}
	var out [24]float64
	for h := 0; h < 24; h++ {
		if days[h] > 0 {
			out[h] = sums[h] / days[h]
		}
	}
	return out
}

// PeriodicityAt returns the autocorrelation of the binned arrival series
// at the given period (both in seconds) — near 1 for strongly periodic
// load such as session batches.
func PeriodicityAt(records []trace.Record, binS, periodS float64) float64 {
	if binS <= 0 || periodS < binS {
		return 0
	}
	ts := RateSeries(records, binS, "")
	return stats.Autocorrelation(ts.Bins(), int(periodS/binS))
}

// ConcurrencySeries returns the number of operations in flight (submitted
// but not completed) at each bin boundary — the "outstanding management
// operations over time" view of a trace. Bins of binS seconds span the
// trace; the value reported for bin i is the in-flight count at time
// i*binS.
func ConcurrencySeries(records []trace.Record, binS float64) []float64 {
	if binS <= 0 {
		panic("analysis: concurrency bin width must be positive")
	}
	maxT := 0.0
	for _, r := range records {
		if r.End > maxT {
			maxT = r.End
		}
	}
	n := int(maxT/binS) + 1
	deltas := make([]float64, n+1)
	for _, r := range records {
		si := int(r.Submit / binS)
		ei := int(r.End / binS)
		if si < 0 || si > n || ei < 0 {
			continue
		}
		deltas[si]++
		if ei+1 <= n {
			deltas[ei+1]--
		}
	}
	out := make([]float64, n)
	running := 0.0
	for i := 0; i < n; i++ {
		running += deltas[i]
		out[i] = running
	}
	return out
}

// PeakConcurrency returns the highest in-flight operation count seen at
// the given resolution.
func PeakConcurrency(records []trace.Record, binS float64) float64 {
	peak := 0.0
	for _, v := range ConcurrencySeries(records, binS) {
		if v > peak {
			peak = v
		}
	}
	return peak
}
