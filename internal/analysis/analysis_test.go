package analysis

import (
	"math"
	"slices"
	"testing"

	"cloudmcp/internal/ops"
	"cloudmcp/internal/trace"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func mkRecords() []trace.Record {
	return []trace.Record{
		{TaskID: 1, Kind: "deploy", Submit: 0, End: 10, Latency: 10,
			Queue: 1, Cell: 1, Mgmt: 2, DB: 1, Host: 2, Data: 3},
		{TaskID: 2, Kind: "deploy", Submit: 60, End: 80, Latency: 20,
			Queue: 2, Cell: 2, Mgmt: 4, DB: 2, Host: 4, Data: 6},
		{TaskID: 3, Kind: "powerOn", Submit: 120, End: 125, Latency: 5,
			Host: 5},
		{TaskID: 4, Kind: "deploy", Submit: 180, End: 200, Latency: 20, Err: "fail"},
		{TaskID: 5, Kind: "destroy", Submit: 240, End: 244, Latency: 4, Mgmt: 4},
	}
}

func TestFilters(t *testing.T) {
	recs := mkRecords()
	if got := len(FilterKind(recs, "deploy")); got != 3 {
		t.Fatalf("deploy count = %d", got)
	}
	if got := len(FilterOK(recs)); got != 4 {
		t.Fatalf("ok count = %d", got)
	}
	if got := len(FilterTime(recs, 60, 181)); got != 3 {
		t.Fatalf("window count = %d", got)
	}
	if got := len(FilterTime(recs, 60, 60)); got != 0 {
		t.Fatalf("empty window = %d", got)
	}
}

func TestOpMix(t *testing.T) {
	mix := OpMix(mkRecords())
	if len(mix) != 3 {
		t.Fatalf("rows = %d", len(mix))
	}
	// Canonical order: deploy, powerOn, destroy.
	if mix[0].Kind != "deploy" || mix[1].Kind != "powerOn" || mix[2].Kind != "destroy" {
		t.Fatalf("order = %v", mix)
	}
	if mix[0].Count != 3 || mix[0].Errors != 1 {
		t.Fatalf("deploy row = %+v", mix[0])
	}
	if !almost(mix[0].Frac, 0.6, 1e-9) {
		t.Fatalf("deploy frac = %v", mix[0].Frac)
	}
}

func TestOpMixUnknownKind(t *testing.T) {
	recs := []trace.Record{{Kind: "zzz"}, {Kind: "deploy"}}
	mix := OpMix(recs)
	if len(mix) != 2 || mix[0].Kind != "deploy" || mix[1].Kind != "zzz" {
		t.Fatalf("mix = %v", mix)
	}
}

func TestOpMixEmpty(t *testing.T) {
	if mix := OpMix(nil); len(mix) != 0 {
		t.Fatalf("mix = %v", mix)
	}
}

func TestRateSeries(t *testing.T) {
	ts := RateSeries(mkRecords(), 60, "")
	if bins := ts.Bins(); !slices.Equal(bins, []float64{1, 1, 1, 1, 1}) {
		t.Fatalf("bins = %v", bins)
	}
	dep := RateSeries(mkRecords(), 60, "deploy").Bins()
	if len(dep) < 3 || dep[2] != 0 || dep[0] != 1 {
		t.Fatalf("deploy bins = %v", dep)
	}
}

func TestInterarrivals(t *testing.T) {
	s := Interarrivals(mkRecords(), "deploy")
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	// Gaps: 60, 120.
	if !almost(s.Mean(), 90, 1e-9) {
		t.Fatalf("mean = %v", s.Mean())
	}
	all := Interarrivals(mkRecords(), "")
	if all.Count() != 4 || !almost(all.Mean(), 60, 1e-9) {
		t.Fatalf("all: count=%d mean=%v", all.Count(), all.Mean())
	}
}

func TestInterarrivalsUnsorted(t *testing.T) {
	recs := []trace.Record{{Kind: "x", Submit: 100}, {Kind: "x", Submit: 0}, {Kind: "x", Submit: 40}}
	s := Interarrivals(recs, "")
	if s.Count() != 2 || s.Percentile(0) != 40 || s.Max() != 60 {
		t.Fatalf("gaps: count=%d min=%v max=%v", s.Count(), s.Percentile(0), s.Max())
	}
}

func TestLatencyByKind(t *testing.T) {
	rows := LatencyByKind(mkRecords())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	dep := rows[0]
	if dep.Kind != "deploy" || dep.Count != 2 { // error record excluded
		t.Fatalf("deploy row = %+v", dep)
	}
	if !almost(dep.MeanLatency, 15, 1e-9) || !almost(dep.MaxLatency, 20, 1e-9) {
		t.Fatalf("deploy latency = %+v", dep)
	}
	if !almost(dep.MeanBreakdown.Data, 4.5, 1e-9) {
		t.Fatalf("deploy mean data = %v", dep.MeanBreakdown.Data)
	}
}

func TestSharesAndControlShare(t *testing.T) {
	b := ops.Breakdown{Queue: 1, Cell: 1, Mgmt: 2, DB: 1, Host: 2, Data: 3}
	if !almost(ControlShare(b), 0.7, 1e-9) {
		t.Fatalf("control share = %v", ControlShare(b))
	}
	if ControlShare(ops.Breakdown{}) != 0 {
		t.Fatal("zero breakdown not handled")
	}
}

func TestMeasureBurstiness(t *testing.T) {
	// 10 ops in one bin, nothing in the other 9.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, trace.Record{Kind: "deploy", Submit: 5})
	}
	recs = append(recs, trace.Record{Kind: "deploy", Submit: 599})
	b := MeasureBurstiness(recs, 60, "")
	if b.PeakPerBin != 10 {
		t.Fatalf("peak = %v", b.PeakPerBin)
	}
	if b.PeakToMean < 5 {
		t.Fatalf("peak/mean = %v", b.PeakToMean)
	}
	if b.IndexOfDispersion < 5 {
		t.Fatalf("dispersion = %v", b.IndexOfDispersion)
	}
}

func TestThroughput(t *testing.T) {
	recs := mkRecords()
	// Successful completions at 10, 80, 125, 244 → 4 over [0, 250).
	if got := Throughput(recs, "", 0, 250); !almost(got, 4.0/250, 1e-12) {
		t.Fatalf("throughput = %v", got)
	}
	if got := Throughput(recs, "deploy", 0, 100); !almost(got, 2.0/100, 1e-12) {
		t.Fatalf("deploy throughput = %v", got)
	}
	if Throughput(recs, "", 10, 10) != 0 {
		t.Fatal("degenerate window")
	}
}

func TestLatencySample(t *testing.T) {
	s := LatencySample(mkRecords(), "deploy")
	if s.Count() != 2 || !almost(s.Mean(), 15, 1e-9) {
		t.Fatalf("sample: n=%d mean=%v", s.Count(), s.Mean())
	}
}

func TestMeanBreakdown(t *testing.T) {
	b, ok := MeanBreakdown(mkRecords(), "deploy")
	if !ok || !almost(b.Mgmt, 3, 1e-9) {
		t.Fatalf("mean breakdown = %+v ok=%v", b, ok)
	}
	if _, ok := MeanBreakdown(mkRecords(), "migrate"); ok {
		t.Fatal("expected no match")
	}
}

func TestPerOrg(t *testing.T) {
	recs := []trace.Record{
		{Kind: "deploy", Org: "a", Latency: 10},
		{Kind: "deploy", Org: "a", Latency: 20},
		{Kind: "powerOn", Org: "a"},
		{Kind: "deploy", Org: "b", Latency: 5, Err: "x"},
		{Kind: "deploy", Org: "b", Latency: 6},
	}
	rows := PerOrg(recs)
	if len(rows) != 2 || rows[0].Org != "a" {
		t.Fatalf("rows = %+v", rows)
	}
	a := rows[0]
	if a.Ops != 3 || a.Deploys != 2 || !almost(a.MeanDeployLatS, 15, 1e-9) {
		t.Fatalf("a = %+v", a)
	}
	b := rows[1]
	if b.Ops != 2 || b.Deploys != 1 || b.Errors != 1 || !almost(b.MeanDeployLatS, 6, 1e-9) {
		t.Fatalf("b = %+v", b)
	}
	if !almost(a.Frac, 0.6, 1e-9) {
		t.Fatalf("frac = %v", a.Frac)
	}
}

func TestPerOrgDeterministicOrder(t *testing.T) {
	recs := []trace.Record{
		{Kind: "powerOn", Org: "z"}, {Kind: "powerOn", Org: "m"},
	}
	rows := PerOrg(recs)
	if rows[0].Org != "m" || rows[1].Org != "z" {
		t.Fatalf("tie order = %+v", rows)
	}
}

func TestDiurnalProfile(t *testing.T) {
	var recs []trace.Record
	// 2 full days: 3 ops in hour 9 each day, 1 op in hour 20 on day 1.
	for day := 0; day < 2; day++ {
		for i := 0; i < 3; i++ {
			recs = append(recs, trace.Record{Kind: "deploy", Submit: float64(day)*86400 + 9*3600 + float64(i)})
		}
	}
	recs = append(recs, trace.Record{Kind: "deploy", Submit: 20 * 3600})
	// Make the trace span exactly 2 days so every hour occurs twice.
	recs = append(recs, trace.Record{Kind: "deploy", Submit: 2*86400 - 1})
	prof := DiurnalProfile(recs)
	if !almost(prof[9], 3, 1e-9) {
		t.Fatalf("hour 9 = %v, want 3", prof[9])
	}
	if !almost(prof[20], 0.5, 1e-9) {
		t.Fatalf("hour 20 = %v, want 0.5", prof[20])
	}
	if prof[3] != 0 {
		t.Fatalf("hour 3 = %v", prof[3])
	}
}

func TestPeriodicityAt(t *testing.T) {
	// Ops every 7200 s exactly: strong period at 7200, weak at 3600+1800.
	var recs []trace.Record
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.Record{Kind: "deploy", Submit: float64(i)*7200 + float64(j)})
		}
	}
	if r := PeriodicityAt(recs, 600, 7200); r < 0.8 {
		t.Fatalf("period 7200 r = %v", r)
	}
	if r := PeriodicityAt(recs, 600, 3600); r > 0.5 {
		t.Fatalf("period 3600 r = %v, want weak", r)
	}
	if PeriodicityAt(recs, 0, 7200) != 0 || PeriodicityAt(recs, 600, 100) != 0 {
		t.Fatal("degenerate params not rejected")
	}
}

func TestConcurrencySeries(t *testing.T) {
	recs := []trace.Record{
		{Kind: "deploy", Submit: 0, End: 25},  // bins 0,1,2
		{Kind: "deploy", Submit: 12, End: 18}, // bin 1
		{Kind: "deploy", Submit: 31, End: 35}, // bin 3
	}
	s := ConcurrencySeries(recs, 10)
	// Bin counts: op in flight during bin if it overlaps the bin index.
	if len(s) != 4 {
		t.Fatalf("len = %d: %v", len(s), s)
	}
	if s[0] != 1 || s[1] != 2 || s[2] != 1 || s[3] != 1 {
		t.Fatalf("series = %v", s)
	}
	if got := PeakConcurrency(recs, 10); got != 2 {
		t.Fatalf("peak = %v", got)
	}
}

func TestConcurrencySeriesEmpty(t *testing.T) {
	s := ConcurrencySeries(nil, 10)
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("series = %v", s)
	}
}

// TestCharacterizationReadersLeaveRecordsUnchanged guards the contract
// a suite run relies on: E1..E3 read one shared trace per profile, so
// none of the functions they call may reorder or rewrite it. The
// records are out of submit order, so an in-place sort would show.
func TestCharacterizationReadersLeaveRecordsUnchanged(t *testing.T) {
	recs := append(mkRecords(),
		trace.Record{Kind: "deploy", Submit: 900, End: 950},
		trace.Record{Kind: "powerOn", Submit: 30, End: 31},
		trace.Record{Kind: "deploy", Submit: 12, End: 40})
	want := slices.Clone(recs)
	for _, r := range []struct {
		name string
		read func()
	}{
		{"OpMix", func() { OpMix(recs) }},
		{"RateSeries.Bins", func() { RateSeries(recs, 60, "").Bins() }},
		{"MeasureBurstiness", func() { MeasureBurstiness(recs, 60, "") }},
		{"Interarrivals", func() { Interarrivals(recs, "deploy") }},
	} {
		r.read()
		if !slices.Equal(recs, want) {
			t.Fatalf("%s modified its records", r.name)
		}
	}
}
