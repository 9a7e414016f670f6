package core

// This file and experiments2.go implement the reconstructed evaluation
// suite E1..E12 (see DESIGN.md for the experiment index). Each experiment
// is a pure function of its parameter struct: it builds fresh Cloud
// instances, drives them, and returns a structured result that renders as
// the paper-style table or figure. cmd/mcpbench runs them, and the repo
// benchmark (bench/) times them.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/stats"
	"cloudmcp/internal/sweep"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// Hour and Day are convenient horizons in seconds.
const (
	Hour = 3600.0
	Day  = 86400.0
)

// profiles returns the three workload profiles every characterization
// experiment compares.
func profiles() []workload.Profile {
	return []workload.Profile{workload.CloudA(), workload.CloudB(), workload.ClassicDC()}
}

// runProfileTrace runs one profile on a fresh default cloud and returns
// the trace.
func runProfileTrace(seed int64, pr workload.Profile, horizon float64) ([]trace.Record, workload.Stats, error) {
	c, err := New(DefaultConfig(seed))
	if err != nil {
		return nil, workload.Stats{}, err
	}
	st, err := c.RunProfile(pr, horizon)
	if err != nil {
		return nil, workload.Stats{}, err
	}
	return c.Records(), st, nil
}

// ---------------------------------------------------------------------
// E1 — operation mix per environment (paper: management-operation table).

// E1Params configures the op-mix characterization.
type E1Params struct {
	Seed     int64
	HorizonS float64 // per profile (registry: 2 days)
}

// E1Result holds the per-profile operation mixes.
type E1Result struct {
	Horizon  float64
	Profiles []string
	Mix      map[string][]analysis.MixRow
	Total    map[string]int
}

// RunE1 runs each profile on a fresh cloud and tabulates the mix.
func RunE1(p E1Params) (*E1Result, error) {
	res := &E1Result{Horizon: p.HorizonS, Mix: map[string][]analysis.MixRow{}, Total: map[string]int{}}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
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

// E2Params configures the arrival-series figure.
type E2Params struct {
	Seed     int64
	HorizonS float64 // per profile (registry: 2 days)
}

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
func RunE2(p E2Params) (*E2Result, error) {
	res := &E2Result{}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
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

// E3Params configures the interarrival CDF.
type E3Params struct {
	Seed     int64
	HorizonS float64 // per profile (registry: 2 days)
}

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

// RunE3 computes deploy interarrival CDFs per profile.
func RunE3(p E3Params) (*E3Result, error) {
	res := &E3Result{}
	for _, pr := range profiles() {
		recs, _, err := runProfileTrace(p.Seed, pr, p.HorizonS)
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

// ---------------------------------------------------------------------
// E4 — per-operation latency with layer breakdown, full vs linked
// provisioning (paper table).

// E4Params configures the latency-breakdown table.
type E4Params struct {
	Seed     int64
	HorizonS float64 // per mode (registry: 12 hours)
}

// E4Mode holds one provisioning mode's per-kind rows.
type E4Mode struct {
	Mode string
	Rows []analysis.LatencyRow
}

// E4Result holds both modes.
type E4Result struct{ Modes []E4Mode }

// RunE4 runs CloudA under full-clone and linked-clone provisioning and
// tabulates per-kind latency breakdowns.
func RunE4(p E4Params) (*E4Result, error) {
	res := &E4Result{}
	for _, fast := range []bool{false, true} {
		cfg := DefaultConfig(p.Seed)
		cfg.Director.FastProvisioning = fast
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := c.RunProfile(workload.CloudA(), p.HorizonS); err != nil {
			return nil, err
		}
		mode := ops.FullClone.String()
		if fast {
			mode = ops.LinkedClone.String()
		}
		res.Modes = append(res.Modes, E4Mode{Mode: mode, Rows: analysis.LatencyByKind(c.Records())})
	}
	return res, nil
}

// Render writes one breakdown table per mode.
func (r *E4Result) Render(w io.Writer) error {
	for _, m := range r.Modes {
		t := report.NewTable("E4: latency breakdown, provisioning="+m.Mode,
			"operation", "n", "mean s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data", "ctl%")
		for _, row := range m.Rows {
			b := row.MeanBreakdown
			t.AddRow(row.Kind, row.Count, row.MeanLatency, row.P95Latency,
				b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data,
				100*analysis.ControlShare(b))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// E5 — deploy latency vs template disk size, full vs linked (paper
// figure: why fast provisioning removes the data plane from the deploy
// path).

// E5Params configures the clone-latency sweep.
type E5Params struct {
	Seed    int64
	Workers int // sweep worker pool; 0 = GOMAXPROCS
}

// E5Point is one sweep point.
type E5Point struct {
	SizeGB  float64
	FullS   float64
	LinkedS float64
}

// E5Result holds the sweep.
type E5Result struct{ Points []E5Point }

// e5Sweep is E5's grid: template disk size × provisioning mode (full,
// then linked clones), one uncontended deploy per point.
type e5Sweep struct{ sizesGB []float64 }

var e5 = e5Sweep{sizesGB: []float64{1, 2, 4, 8, 16, 32, 64}}

func (d e5Sweep) grid() Grid {
	return Grid{Dims: []Dim{Vary("topology.templateDiskGB", d.sizesGB...), Vary("director.fastProvisioning", false, true)}}
}

// RunE5 measures a single uncontended deploy per size and mode. Each
// point is a pure function of (seed, size, mode), so the table is
// identical for any Workers.
func RunE5(p E5Params) (*E5Result, error) { return e5.run(p) }

func (d e5Sweep) run(p E5Params) (*E5Result, error) {
	lat, err := RunGrid(d.grid(), DefaultLoader(p.Seed), sweep.Options{MasterSeed: p.Seed, Workers: p.Workers},
		func(pt GridRow) (float64, error) {
			c, err := New(pt.Config)
			if err != nil {
				return 0, err
			}
			inv := c.Inventory()
			tpl := inv.Template(inv.Templates()[0])
			var latency float64
			c.Go("deploy", func(proc *sim.Proc) {
				resD := c.Director().DeployVApp(proc, "org", tpl, 1, false)
				if resD.Err == nil && len(resD.Tasks) > 0 {
					latency = resD.Tasks[0].Latency()
				}
			})
			c.Run(100 * Hour)
			return latency, nil
		})
	if err != nil {
		return nil, err
	}
	res := &E5Result{}
	for i, size := range d.sizesGB {
		res.Points = append(res.Points, E5Point{SizeGB: size, FullS: lat[2*i], LinkedS: lat[2*i+1]})
	}
	return res, nil
}

// Render writes the sweep as a table plus a ratio column.
func (r *E5Result) Render(w io.Writer) error {
	t := report.NewTable("E5: deploy latency vs template size",
		"size GB", "full s", "linked s", "full/linked")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.LinkedS > 0 {
			ratio = pt.FullS / pt.LinkedS
		}
		t.AddRow(pt.SizeGB, pt.FullS, pt.LinkedS, ratio)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E6 — provisioning throughput vs offered concurrency (the paper's
// headline figure: with linked clones the control plane, not the
// datastore, is what saturates).

// E6Params configures the throughput sweep.
type E6Params struct {
	Seed     int64
	HorizonS float64 // per point, the first 10% warmup (registry: 30 min)
	Workers  int     // sweep worker pool; 0 = GOMAXPROCS
}

// E6Point is one sweep point.
type E6Point struct {
	Concurrency    int
	FullPerHour    float64
	LinkedPerHour  float64
	FullMeanLatS   float64
	LinkedMeanLatS float64
}

// E6Result holds the sweep.
type E6Result struct{ Points []E6Point }

// e6Sweep is E6's grid: closed-loop clients × provisioning mode (full,
// then linked clones), with rebalancing off to isolate provisioning.
type e6Sweep struct{ clients []int }

var e6 = e6Sweep{clients: []int{1, 2, 4, 8, 16, 32, 64, 128}}

func (d e6Sweep) grid(horizonS float64) Grid {
	clients := Dim{Name: "concurrency"}
	for _, n := range d.clients {
		clients.Levels = append(clients.Levels, Level{Label: fmt.Sprint(n), Clients: n})
	}
	return Grid{
		Base:     []string{"director.rebalanceThreshold=0"},
		Dims:     []Dim{clients, Vary("director.fastProvisioning", false, true)},
		HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// ClosedLoopResult summarizes one closed-loop deploy→destroy run over
// its post-warmup window.
type ClosedLoopResult struct {
	DeploysPerHour float64
	MeanLatencyS   float64
	P95LatencyS    float64
	P99LatencyS    float64
	Deploys        int // successful deploys in the window
	Errors         int // failed deploys in the window
	// Retry and Goodput account for fault-injection activity over the
	// whole run (not just the post-warmup window); both are zero/nil
	// without cfg.Faults.
	Retry   mgmt.RetryStats
	Goodput []mgmt.GoodputRow
	// Reconcile carries per-controller reconciliation activity over the
	// whole run; nil without cfg.Reconcile.
	Reconcile []reconcile.Stats
	// Metrics is the end-of-run per-layer snapshot, nil unless
	// cfg.Metrics was set. It never affects the numbers above.
	Metrics *metrics.Snapshot
	// DBUtil is the management database's mean utilization: the shared
	// instance's on a shared-DB plane, the mean across instances on a
	// per-shard plane.
	DBUtil float64
	// DRSMoves and RebalanceMoves count the migrations the balancer and
	// the storage rebalancer issued over the whole run — the churn a
	// policy choice induces, scored by the E21 tournament.
	DRSMoves       int64
	RebalanceMoves int64
	// Plane reports the run's management-plane topology and cross-shard
	// coordination counters (Shards == 1, zero counters on the default
	// single-shard plane).
	Plane plane.Stats
}

// RunClosedLoop drives `clients` closed-loop deploy→destroy workers
// against a cloud built from cfg for horizon seconds and summarizes the
// post-warmup window. It is Grid.Run's per-point function, so E6, E10,
// E11, E17, E18, E20, E21 and cmd/mcpsweep all measure through it; the
// think-time stream derives from cfg.Seed only, so the result is a pure
// function of (cfg, clients, horizon, warmup).
func RunClosedLoop(cfg Config, clients int, horizonS, warmupS float64) (ClosedLoopResult, error) {
	c, err := New(cfg)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	// The "e6" label predates the harness being shared beyond E6; it is
	// part of the reproducibility contract (changing it changes every
	// closed-loop artifact), so it stays.
	return runClosedLoopOn(c, clients, horizonS, warmupS, thinkTime(cfg.Seed, "e6")), nil
}

// runClosedLoopOn is RunClosedLoop against an already-built cloud, for
// callers that prepare the inventory first (E19 prepopulates up to a
// million VMs before the workload starts) or think differently (E13).
// The cloud must be freshly built and not yet run.
func runClosedLoopOn(c *Cloud, clients int, horizonS, warmupS float64, think func() float64) ClosedLoopResult {
	cfg := c.cfg
	startClosedLoop(c, clients, horizonS, think)
	c.Run(horizonS)
	perHour, lat, failed := deployWindow(c, warmupS, horizonS)
	res := ClosedLoopResult{
		DeploysPerHour: perHour,
		MeanLatencyS:   lat.Mean(),
		P95LatencyS:    lat.Percentile(95),
		P99LatencyS:    lat.Percentile(99),
		Deploys:        int(lat.Count()),
		Errors:         failed,
		Metrics:        c.MetricsSnapshot(),
		DBUtil:         c.DBUtilization(),
		DRSMoves:       c.DRS().Stats().Moves,
		RebalanceMoves: c.Director().Stats().RebalanceMoves,
		Plane:          c.Plane().Stats(),
	}
	if cfg.Faults != nil {
		res.Retry = c.Plane().RetryStats()
		res.Goodput = c.Plane().Goodput()
	}
	if cfg.Reconcile != nil {
		res.Reconcile = c.ReconcileStats()
	}
	return res
}

// RunE6 sweeps closed-loop concurrency for both provisioning modes; the
// grid's points fan across the sweep engine's worker pool.
func RunE6(p E6Params) (*E6Result, error) { return e6.run(p) }

func (d e6Sweep) run(p E6Params) (*E6Result, error) {
	rows, err := d.grid(p.HorizonS).Run(DefaultLoader(p.Seed), sweep.Options{MasterSeed: p.Seed, Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	res := &E6Result{}
	for i, n := range d.clients {
		full, linked := rows[2*i].Result, rows[2*i+1].Result
		res.Points = append(res.Points, E6Point{
			Concurrency: n, FullPerHour: full.DeploysPerHour, LinkedPerHour: linked.DeploysPerHour,
			FullMeanLatS: full.MeanLatencyS, LinkedMeanLatS: linked.MeanLatencyS,
		})
	}
	return res, nil
}

// Render writes the sweep table and the two throughput series.
func (r *E6Result) Render(w io.Writer) error {
	t := report.NewTable("E6: provisioning throughput vs concurrency",
		"workers", "full/h", "linked/h", "linked:full", "full lat s", "linked lat s")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.FullPerHour > 0 {
			ratio = pt.LinkedPerHour / pt.FullPerHour
		}
		t.AddRow(pt.Concurrency, pt.FullPerHour, pt.LinkedPerHour, ratio,
			pt.FullMeanLatS, pt.LinkedMeanLatS)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, mode := range []string{"full", "linked"} {
		s := report.NewSeries("E6: "+mode+" deploys/hour", "workers", "deploys/h")
		for _, pt := range r.Points {
			if mode == "full" {
				s.Add(float64(pt.Concurrency), pt.FullPerHour)
			} else {
				s.Add(float64(pt.Concurrency), pt.LinkedPerHour)
			}
		}
		if err := s.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// PeakThroughput returns the max deploys/hour seen for a mode.
func (r *E6Result) PeakThroughput(linked bool) float64 {
	best := 0.0
	for _, pt := range r.Points {
		v := pt.FullPerHour
		if linked {
			v = pt.LinkedPerHour
		}
		if v > best {
			best = v
		}
	}
	return best
}
