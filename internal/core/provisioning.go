package core

// The provisioning experiments E4..E7: where deploy latency goes under
// full and linked clones, and how provisioning throughput and latency
// respond to offered load. RunClosedLoop, the closed loop every
// closed-loop grid measures through, lives here with E6.

import (
	"fmt"
	"io"
	"slices"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/workload"
)

// ---------------------------------------------------------------------
// E4 — per-operation latency with layer breakdown, full vs linked
// provisioning (paper table).

// E4Mode holds one provisioning mode's per-kind rows.
type E4Mode struct {
	Mode string
	Rows []analysis.LatencyRow
}

// E4Result holds both modes.
type E4Result struct{ Modes []E4Mode }

// RunE4 runs CloudA under full-clone and linked-clone provisioning and
// tabulates per-kind latency breakdowns. HorizonS is per mode.
func RunE4(p Params) (*E4Result, error) {
	res := &E4Result{}
	for _, fast := range []bool{false, true} {
		cfg := DefaultConfig(p.Seed)
		cfg.Director.FastProvisioning = fast
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		_, err = c.RunProfile(workload.CloudA(), p.HorizonS)
		rows := analysis.LatencyByKind(c.Records())
		c.Close()
		if err != nil {
			return nil, err
		}
		mode := ops.FullClone.String()
		if fast {
			mode = ops.LinkedClone.String()
		}
		res.Modes = append(res.Modes, E4Mode{Mode: mode, Rows: rows})
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
// identical for any Workers. It reads no HorizonS.
func RunE5(p Params) (*E5Result, error) { return e5.run(p) }

func (d e5Sweep) run(p Params) (*E5Result, error) {
	load, opts := p.sweep()
	lat, err := RunGrid(d.grid(), load, opts,
		func(pt GridRow) (float64, error) {
			c, err := New(pt.Config)
			if err != nil {
				return 0, err
			}
			defer c.Close()
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
	defer c.Close()
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
// grid's points fan across the sweep engine's worker pool. HorizonS is
// per point, the first 10% warmup.
func RunE6(p Params) (*E6Result, error) { return e6.run(p) }

func (d e6Sweep) run(p Params) (*E6Result, error) {
	rows, err := d.grid(p.HorizonS).Run(p.sweep())
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

// loadSweep is the grid E7 and E9 share: open-loop linked-clone deploy
// rates, with 600 s lifetimes, against a paper-era manager with shadow
// churn off, so the sweep saturates the manager itself.
type loadSweep struct{ rates []float64 }

var e7e9 = loadSweep{rates: []float64{500, 1000, 2000, 4000, 8000}}

func (d loadSweep) grid() Grid {
	return Grid{
		Base: slices.Concat(paperEra, []string{"director.maxChainLen=1073741824", "director.fastProvisioning=true"}),
		Dims: []Dim{axis("rate", d.rates...)},
	}
}

// loadPoint is one rate's E7 and E9 readings of the same cloud.
type loadPoint struct {
	e7 E7Point
	e9 E9Point
}

// run simulates each rate once and reads both experiments' point from
// its cloud; inside a suite run E7 and E9 share the result.
func (d loadSweep) run(p Params) ([]loadPoint, error) {
	return share(p, fmt.Sprint("load", d.rates, "@", p.HorizonS), func() ([]loadPoint, error) {
		load, opts := p.sweep()
		return RunGrid(d.grid(), load, opts, func(pt GridRow) (loadPoint, error) {
			rate := d.rates[pt.Levels[0]]
			c, err := openLoopCloud(pt.Config, rate, p.HorizonS, 600)
			if err != nil {
				return loadPoint{}, err
			}
			defer c.Close()
			recs := c.Records()
			deploys := analysis.FilterOK(analysis.FilterKind(recs, ops.KindDeploy.String()))
			bd, _ := analysis.MeanBreakdown(deploys, "")
			rr := c.Manager().Resources()
			return loadPoint{
				e7: E7Point{RatePerHour: rate, Completed: len(deploys), MeanLatS: analysis.LatencySample(deploys, "").Mean(), Breakdown: bd},
				e9: E9Point{RatePerHour: rate, DonePerHour: analysis.Throughput(recs, "", 0, p.HorizonS) * Hour,
					Admission: rr.Admission, Threads: rr.Threads, DB: c.Manager().DB().Stats()},
			}, nil
		})
	})
}

// ---------------------------------------------------------------------
// E7 — deploy latency breakdown across layers as offered load rises
// (paper figure: where the time goes once the data plane is out of the
// way).

// E7Point is one load level's mean deploy breakdown.
type E7Point struct {
	RatePerHour float64
	Completed   int
	MeanLatS    float64
	Breakdown   ops.Breakdown // mean per deploy
}

// E7Result holds the sweep.
type E7Result struct{ Points []E7Point }

// RunE7 sweeps open-loop deploy load under linked clones. The manager is
// sized to paper-era capacity (4 worker threads, 2 DB connections) and
// shadow churn is disabled so the sweep isolates control-plane queueing;
// E8 covers the churn dimension. HorizonS is per point.
func RunE7(p Params) (*E7Result, error) { return e7e9.e7(p) }

func (d loadSweep) e7(p Params) (*E7Result, error) {
	points, err := d.run(p)
	if err != nil {
		return nil, err
	}
	res := &E7Result{}
	for _, pt := range points {
		res.Points = append(res.Points, pt.e7)
	}
	return res, nil
}

// Render writes the breakdown-vs-load table.
func (r *E7Result) Render(w io.Writer) error {
	t := report.NewTable("E7: linked-deploy latency breakdown vs offered load",
		"req/h", "done", "mean s", "queue", "cell", "mgmt", "db", "host", "data", "queue%")
	for _, pt := range r.Points {
		b := pt.Breakdown
		qshare := 0.0
		if b.Total() > 0 {
			qshare = 100 * b.Queue / b.Total()
		}
		t.AddRow(pt.RatePerHour, pt.Completed, pt.MeanLatS,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data, qshare)
	}
	return t.Render(w)
}
