package core

// The characterization experiments E1..E3: the operation mix, arrival
// series and interarrival-time CDFs of the three workload profiles.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/stats"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// profiles returns the three workload profiles every characterization
// experiment compares.
func profiles() []workload.Profile {
	return []workload.Profile{workload.CloudA(), workload.CloudB(), workload.ClassicDC()}
}

// profileTrace runs profile pr for p.HorizonS on a fresh default cloud
// and returns the trace, which a suite run shares, so it is read-only.
func (p Params) profileTrace(pr workload.Profile) ([]trace.Record, error) {
	return share(p, fmt.Sprint(pr.Name, "@", p.HorizonS), func() ([]trace.Record, error) {
		c, err := New(DefaultConfig(p.Seed))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if _, err := c.RunProfile(pr, p.HorizonS); err != nil {
			return nil, err
		}
		return c.Records(), nil
	})
}

// ---------------------------------------------------------------------
// E1 — operation mix per environment (paper: management-operation table).

// E1Result holds the per-profile operation mixes.
type E1Result struct {
	Horizon  float64
	Profiles []string
	Mix      map[string][]analysis.MixRow
	Total    map[string]int
}

// RunE1 runs each profile on a fresh cloud and tabulates the mix.
// HorizonS is per profile.
func RunE1(p Params) (*E1Result, error) {
	res := &E1Result{Horizon: p.HorizonS, Mix: map[string][]analysis.MixRow{}, Total: map[string]int{}}
	for _, pr := range profiles() {
		recs, err := p.profileTrace(pr)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", pr.Name, err)
		}
		res.Profiles = append(res.Profiles, pr.Name)
		res.Mix[pr.Name] = analysis.OpMix(recs)
		res.Total[pr.Name] = len(recs)
	}
	return res, nil
}

// Table renders the mix as one table with a count and share column per
// profile.
func (r *E1Result) Table() *report.Table {
	headers := []string{"operation"}
	for _, p := range r.Profiles {
		headers = append(headers, p+" n", p+" %")
	}
	t := report.NewTable(fmt.Sprintf("E1: management-operation mix over %.0f h", r.Horizon/Hour), headers...)
	for _, k := range ops.Kinds() {
		row := []any{k.String()}
		any := false
		for _, p := range r.Profiles {
			found := false
			for _, m := range r.Mix[p] {
				if m.Kind == k.String() {
					row = append(row, m.Count, 100*m.Frac)
					found = true
					any = any || m.Count > 0
					break
				}
			}
			if !found {
				row = append(row, 0, 0.0)
			}
		}
		if any {
			t.AddRow(row...)
		}
	}
	total := []any{"total"}
	for _, p := range r.Profiles {
		total = append(total, r.Total[p], 100.0)
	}
	t.AddRow(total...)
	return t
}

// Render writes the experiment's artifact.
func (r *E1Result) Render(w io.Writer) error { return r.Table().Render(w) }

// ---------------------------------------------------------------------
// E2 — operations per hour over time (paper: arrival-rate figure).

// e2BinS is the series' bin width.
const e2BinS = Hour

// E2Profile is one profile's series and burstiness.
type E2Profile struct {
	Name       string
	Series     []float64 // ops per bin
	Burstiness analysis.Burstiness
}

// E2Result holds the per-profile arrival series.
type E2Result struct{ Profiles []E2Profile }

// RunE2 produces the operations-per-hour series for each profile.
// HorizonS is per profile.
func RunE2(p Params) (*E2Result, error) {
	res := &E2Result{}
	for _, pr := range profiles() {
		recs, err := p.profileTrace(pr)
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", pr.Name, err)
		}
		ts := analysis.RateSeries(recs, e2BinS, "")
		res.Profiles = append(res.Profiles, E2Profile{
			Name:   pr.Name,
			Series: ts.Bins(),
			// Burstiness at finer bins: session batches and burst trains
			// land within minutes, which hour-wide bins would smear out.
			Burstiness: analysis.MeasureBurstiness(recs, e2BinS/6, ""),
		})
	}
	return res, nil
}

// Render writes one series block per profile plus a burstiness table.
func (r *E2Result) Render(w io.Writer) error {
	for _, p := range r.Profiles {
		s := report.NewSeries(fmt.Sprintf("E2: %s management ops per %.0f min", p.Name, e2BinS/60), "bin", "ops")
		for i, y := range p.Series {
			s.Add(float64(i), y)
		}
		if err := s.Render(w); err != nil {
			return err
		}
	}
	t := report.NewTable("E2: burstiness", "profile", "mean/bin", "peak/bin", "peak:mean", "dispersion")
	for _, p := range r.Profiles {
		t.AddRow(p.Name, p.Burstiness.MeanPerBin, p.Burstiness.PeakPerBin,
			p.Burstiness.PeakToMean, p.Burstiness.IndexOfDispersion)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E3 — interarrival-time CDF of provisioning requests (paper figure).

// e3Points is the CDF's resolution.
const e3Points = 20

// E3Profile is one profile's deploy-interarrival CDF.
type E3Profile struct {
	Name string
	CDF  []stats.CDFPoint
	Mean float64
	CV   float64
}

// E3Result holds the CDFs.
type E3Result struct{ Profiles []E3Profile }

// RunE3 computes deploy interarrival CDFs per profile. HorizonS is per
// profile.
func RunE3(p Params) (*E3Result, error) {
	res := &E3Result{}
	for _, pr := range profiles() {
		recs, err := p.profileTrace(pr)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", pr.Name, err)
		}
		ia := analysis.Interarrivals(recs, ops.KindDeploy.String())
		res.Profiles = append(res.Profiles, E3Profile{
			Name: pr.Name,
			CDF:  ia.CDF(e3Points),
			Mean: ia.Mean(),
			CV:   ia.CV(),
		})
	}
	return res, nil
}

// Render writes a CDF table per profile.
func (r *E3Result) Render(w io.Writer) error {
	for _, p := range r.Profiles {
		t := report.NewTable(
			fmt.Sprintf("E3: %s deploy interarrival CDF (mean %.1fs, cv %.2f)", p.Name, p.Mean, p.CV),
			"F", "interarrival s")
		for _, pt := range p.CDF {
			t.AddRow(pt.F, pt.X)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
