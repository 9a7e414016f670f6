package core

// Experiments E7..E12: load sweeps, reconfiguration pressure, queueing,
// and the design-implication ablations. See DESIGN.md for the index.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// openLoopCloud builds a cloud, runs the "openloop" stream of Poisson
// single-VM deploys (see startOpenLoop) on it for horizon seconds, and
// returns the cloud after the run.
func openLoopCloud(seed int64, fast bool, ratePerHour, horizon, lifetimeS float64, mutate func(*Config)) (*Cloud, error) {
	cfg := DefaultConfig(seed)
	cfg.Director.FastProvisioning = fast
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	startOpenLoop(c, "openloop", ratePerHour, horizon, lifetimeS)
	c.Run(horizon)
	return c, nil
}

// paperEraManager shrinks the manager to the capacities of the paper's
// era (a few worker threads, two DB connections) and disables shadow
// churn and rebalancing, so open-loop sweeps saturate the manager itself.
func paperEraManager(cfg *Config) {
	cfg.Mgmt.Threads = 4
	cfg.Mgmt.DBConns = 2
	cfg.Director.MaxChainLen = 1 << 30
	cfg.Director.RebalanceThreshold = 0
}

// ---------------------------------------------------------------------
// E7 — deploy latency breakdown across layers as offered load rises
// (paper figure: where the time goes once the data plane is out of the
// way).

// E7Params configures the load sweep.
type E7Params struct {
	Seed         int64
	RatesPerHour []float64 // default 100..1600
	HorizonS     float64   // per point, default 1 hour
	Workers      int       // sweep worker pool; 0 = GOMAXPROCS
}

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
// E8 covers the churn dimension.
func RunE7(p E7Params) (*E7Result, error) {
	if len(p.RatesPerHour) == 0 {
		p.RatesPerHour = []float64{500, 1000, 2000, 4000, 8000}
	}
	if p.HorizonS == 0 {
		p.HorizonS = Hour
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(p.RatesPerHour),
		func(sp sweep.Point) (E7Point, error) {
			rate := p.RatesPerHour[sp.Index]
			c, err := openLoopCloud(p.Seed, true, rate, p.HorizonS, 600, paperEraManager)
			if err != nil {
				return E7Point{}, err
			}
			deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
			bd, _ := analysis.MeanBreakdown(deploys, "")
			lat := analysis.LatencySample(deploys, "")
			return E7Point{
				RatePerHour: rate,
				Completed:   len(deploys),
				MeanLatS:    lat.Mean(),
				Breakdown:   bd,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E7Result{Points: points}, nil
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

// ---------------------------------------------------------------------
// E8 — reconfiguration pressure: how provisioning rate drives the
// previously-rare cloud reconfiguration operations (shadow-template
// creation under linked clones; datastore rebalancing under sticky
// placement).

// E8Params configures the pressure sweep.
type E8Params struct {
	Seed         int64
	RatesPerHour []float64 // default 50..800
	HorizonS     float64   // per point, default 2 hours
	MaxChainLen  int       // clones per shadow base, default 8
}

// E8Point is one rate's reconfiguration activity.
type E8Point struct {
	RatePerHour     float64
	Deploys         int
	ShadowsPerHour  float64 // linked mode: catalog maintenance
	RebalStartsPerH float64 // sticky full-clone mode: passes begun
	MovesPerHour    float64 // rebalance storage-migrations begun
	EndImbalance    float64 // residual fill imbalance when the run ends
}

// E8Result holds the sweep.
type E8Result struct{ Points []E8Point }

// RunE8 sweeps the provisioning rate and measures both reconfiguration
// mechanisms.
func RunE8(p E8Params) (*E8Result, error) {
	if len(p.RatesPerHour) == 0 {
		p.RatesPerHour = []float64{50, 100, 200, 400, 800}
	}
	if p.HorizonS == 0 {
		p.HorizonS = 2 * Hour
	}
	if p.MaxChainLen == 0 {
		p.MaxChainLen = 8
	}
	res := &E8Result{}
	for _, rate := range p.RatesPerHour {
		pt := E8Point{RatePerHour: rate}

		// (a) Linked clones: shadow-template churn.
		cLinked, err := openLoopCloud(p.Seed, true, rate, p.HorizonS, 900, func(cfg *Config) {
			cfg.Director.MaxChainLen = p.MaxChainLen
			cfg.Director.RebalanceThreshold = 0
		})
		if err != nil {
			return nil, err
		}
		pt.Deploys = len(analysis.FilterOK(analysis.FilterKind(cLinked.Records(), ops.KindDeploy.String())))
		pt.ShadowsPerHour = float64(cLinked.Director().Stats().ShadowCopies) / (p.HorizonS / Hour)

		// (b) Sticky full clones: datastore rebalancing.
		cFull, err := openLoopCloud(p.Seed, false, rate, p.HorizonS, 900, func(cfg *Config) {
			cfg.Director.Placement = clouddir.PlaceStickyOrg
			cfg.Director.RebalanceThreshold = 0.05
			cfg.Director.RebalanceCheckS = 600
			cfg.Director.RebalanceBatch = 8
			cfg.Topology.DatastoreGB = 2000 // tighter datastores fill faster
		})
		if err != nil {
			return nil, err
		}
		st := cFull.Director().Stats()
		pt.RebalStartsPerH = float64(st.RebalanceStarts) / (p.HorizonS / Hour)
		pt.MovesPerHour = float64(st.RebalanceMoves) / (p.HorizonS / Hour)
		pt.EndImbalance = cFull.Storage().Imbalance()
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render writes the pressure table.
func (r *E8Result) Render(w io.Writer) error {
	t := report.NewTable("E8: reconfiguration pressure vs provisioning rate",
		"req/h", "deploys", "shadows/h", "rebal starts/h", "moves/h", "end imbalance")
	for _, pt := range r.Points {
		t.AddRow(pt.RatePerHour, pt.Deploys, pt.ShadowsPerHour,
			pt.RebalStartsPerH, pt.MovesPerHour, pt.EndImbalance)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E9 — control-plane queueing: utilization, queue length, and wait at the
// manager's serialization points vs offered load (paper table).

// E9Params configures the queueing sweep.
type E9Params struct {
	Seed         int64
	RatesPerHour []float64 // default 100..1600
	HorizonS     float64   // per point, default 1 hour
	Workers      int       // sweep worker pool; 0 = GOMAXPROCS
}

// E9Point is one load level's resource report.
type E9Point struct {
	RatePerHour float64
	DonePerHour float64
	Admission   sim.ResourceStats
	Threads     sim.ResourceStats
	DB          sim.ResourceStats
}

// E9Result holds the sweep.
type E9Result struct{ Points []E9Point }

// RunE9 sweeps open-loop load and snapshots the manager's resources,
// using the same paper-era manager sizing as E7.
func RunE9(p E9Params) (*E9Result, error) {
	if len(p.RatesPerHour) == 0 {
		p.RatesPerHour = []float64{500, 1000, 2000, 4000, 8000}
	}
	if p.HorizonS == 0 {
		p.HorizonS = Hour
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(p.RatesPerHour),
		func(sp sweep.Point) (E9Point, error) {
			rate := p.RatesPerHour[sp.Index]
			c, err := openLoopCloud(p.Seed, true, rate, p.HorizonS, 600, paperEraManager)
			if err != nil {
				return E9Point{}, err
			}
			rr := c.Manager().Resources()
			done := analysis.Throughput(c.Records(), "", 0, p.HorizonS) * Hour
			return E9Point{
				RatePerHour: rate, DonePerHour: done,
				Admission: rr.Admission, Threads: rr.Threads, DB: rr.DB,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E9Result{Points: points}, nil
}

// Render writes the queueing table.
func (r *E9Result) Render(w io.Writer) error {
	t := report.NewTable("E9: manager queueing vs offered deploy load",
		"req/h", "ops done/h", "adm util", "adm queue", "thr util", "thr wait s", "db util", "db wait s")
	for _, pt := range r.Points {
		t.AddRow(pt.RatePerHour, pt.DonePerHour,
			pt.Admission.Utilization, pt.Admission.MeanQueueLen,
			pt.Threads.Utilization, pt.Threads.MeanWait,
			pt.DB.Utilization, pt.DB.MeanWait)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E10 — design implication: scaling director cells (paper figure).

// E10Params configures the cell-scaling ablation.
type E10Params struct {
	Seed         int64
	Cells        []int   // default 1,2,4,8
	Workers      int     // closed-loop clients, default 64
	HorizonS     float64 // default 30 min
	SweepWorkers int     // sweep worker pool; 0 = GOMAXPROCS
}

// E10Point is one cell count's throughput.
type E10Point struct {
	Cells         int
	LinkedPerHour float64
	MeanLatS      float64
}

// E10Result holds the ablation.
type E10Result struct{ Points []E10Point }

// RunE10 sweeps the number of cells at fixed saturating concurrency.
// Cells are deliberately small (4 threads) so the cell tier is the
// binding stage.
func RunE10(p E10Params) (*E10Result, error) {
	if len(p.Cells) == 0 {
		p.Cells = []int{1, 2, 4, 8}
	}
	if p.Workers == 0 {
		p.Workers = 64
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.SweepWorkers}, len(p.Cells),
		func(sp sweep.Point) (E10Point, error) {
			cells := p.Cells[sp.Index]
			perHour, meanLat, err := closedLoopDeploys(p.Seed, true, p.Workers, p.HorizonS, p.HorizonS/10,
				func(cfg *Config) {
					cfg.Director.Cells = cells
					cfg.Director.CellThreads = 2
					// Disable shadow churn so the cell tier is the binding
					// stage, which is what this ablation isolates.
					cfg.Director.MaxChainLen = 1 << 30
				})
			return E10Point{Cells: cells, LinkedPerHour: perHour, MeanLatS: meanLat}, err
		})
	if err != nil {
		return nil, err
	}
	return &E10Result{Points: points}, nil
}

// Render writes the scaling series.
func (r *E10Result) Render(w io.Writer) error {
	t := report.NewTable("E10: provisioning throughput vs director cells",
		"cells", "linked deploys/h", "mean latency s")
	for _, pt := range r.Points {
		t.AddRow(pt.Cells, pt.LinkedPerHour, pt.MeanLatS)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	s := report.NewSeries("E10: deploys/hour vs cells", "cells", "deploys/h")
	for _, pt := range r.Points {
		s.Add(float64(pt.Cells), pt.LinkedPerHour)
	}
	return s.Render(w)
}

// ---------------------------------------------------------------------
// E11 — design implication: inventory lock granularity (paper figure).

// E11Params configures the lock ablation.
type E11Params struct {
	Seed         int64
	Workers      int     // closed-loop clients, default 64
	HorizonS     float64 // default 30 min
	SweepWorkers int     // sweep worker pool; 0 = GOMAXPROCS
}

// E11Point is one granularity's throughput.
type E11Point struct {
	Granularity   string
	LinkedPerHour float64
	MeanLatS      float64
}

// E11Result holds the ablation.
type E11Result struct{ Points []E11Point }

// RunE11 compares coarse, host, and entity locking at fixed concurrency.
func RunE11(p E11Params) (*E11Result, error) {
	if p.Workers == 0 {
		p.Workers = 64
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	grans := []mgmt.LockGranularity{mgmt.GranularityCoarse, mgmt.GranularityHost, mgmt.GranularityEntity}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.SweepWorkers}, len(grans),
		func(sp sweep.Point) (E11Point, error) {
			g := grans[sp.Index]
			perHour, meanLat, err := closedLoopDeploys(p.Seed, true, p.Workers, p.HorizonS, p.HorizonS/10,
				func(cfg *Config) { cfg.Mgmt.Granularity = g })
			return E11Point{Granularity: g.String(), LinkedPerHour: perHour, MeanLatS: meanLat}, err
		})
	if err != nil {
		return nil, err
	}
	return &E11Result{Points: points}, nil
}

// Render writes the ablation table.
func (r *E11Result) Render(w io.Writer) error {
	t := report.NewTable("E11: provisioning throughput vs lock granularity",
		"granularity", "linked deploys/h", "mean latency s")
	for _, pt := range r.Points {
		t.AddRow(pt.Granularity, pt.LinkedPerHour, pt.MeanLatS)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E12 — catalog operations: publish cost vs template size, and latency
// amplification under concurrent provisioning load (paper table).

// E12Params configures the catalog experiment.
type E12Params struct {
	Seed        int64
	SizesGB     []float64 // default 4..64
	LoadWorkers int       // concurrent deploy clients for the loaded case, default 32
	HorizonS    float64   // loaded-case horizon, default 30 min
}

// E12Point is one size's publish latencies.
type E12Point struct {
	SizeGB      float64
	IdleS       float64 // publish latency on an idle cloud
	FullLoadS   float64 // publish latency amid full-clone deploy load
	LinkedLoadS float64 // publish latency amid linked-clone deploy load
	FullDeploys int
	LinkDeploys int
}

// E12Result holds the experiment.
type E12Result struct{ Points []E12Point }

// e12Mode identifies the three measurement conditions.
type e12Mode int

const (
	e12Idle e12Mode = iota
	e12FullLoad
	e12LinkedLoad
)

// RunE12 measures catalog publishes on an idle cloud and under
// concurrent full-clone and linked-clone provisioning load. The contrast
// between the two loaded cases shows fast provisioning relieving the
// data-plane contention that catalog operations suffer.
func RunE12(p E12Params) (*E12Result, error) {
	if len(p.SizesGB) == 0 {
		p.SizesGB = []float64{4, 16, 64}
	}
	if p.LoadWorkers == 0 {
		p.LoadWorkers = 32
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	res := &E12Result{}
	for _, size := range p.SizesGB {
		pt := E12Point{SizeGB: size}
		for _, mode := range []e12Mode{e12Idle, e12FullLoad, e12LinkedLoad} {
			mode := mode
			cfg := DefaultConfig(p.Seed)
			cfg.Topology.TemplateDiskGB = size
			cfg.Director.RebalanceThreshold = 0
			cfg.Director.FastProvisioning = mode == e12LinkedLoad
			c, err := New(cfg)
			if err != nil {
				return nil, err
			}
			inv := c.Inventory()
			tpl := inv.Template(inv.Templates()[0])
			if mode != e12Idle {
				startClosedLoop(c, p.LoadWorkers, p.HorizonS, thinkTime(p.Seed, "e12"))
			}
			var latency float64
			c.Go("publisher", func(pp *sim.Proc) {
				// Publish mid-run, after load has ramped.
				pp.Sleep(p.HorizonS / 4)
				dst := inv.Datastore(inv.Datastores()[len(inv.Datastores())-1])
				_, task := c.Director().PublishTemplate(pp, tpl, dst, fmt.Sprintf("pub-%0.f", size), "orgPub")
				if task.Err == nil {
					latency = task.Latency()
				}
			})
			c.Run(p.HorizonS)
			deploys := len(analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String())))
			switch mode {
			case e12Idle:
				pt.IdleS = latency
			case e12FullLoad:
				pt.FullLoadS = latency
				pt.FullDeploys = deploys
			case e12LinkedLoad:
				pt.LinkedLoadS = latency
				pt.LinkDeploys = deploys
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render writes the catalog table.
func (r *E12Result) Render(w io.Writer) error {
	t := report.NewTable("E12: catalog publish latency, idle vs under provisioning load",
		"size GB", "idle s", "full-load s", "linked-load s", "amp(full)", "amp(linked)", "bg full", "bg linked")
	for _, pt := range r.Points {
		ampF, ampL := 0.0, 0.0
		if pt.IdleS > 0 {
			ampF = pt.FullLoadS / pt.IdleS
			ampL = pt.LinkedLoadS / pt.IdleS
		}
		t.AddRow(pt.SizeGB, pt.IdleS, pt.FullLoadS, pt.LinkedLoadS, ampF, ampL, pt.FullDeploys, pt.LinkDeploys)
	}
	return t.Render(w)
}

// RunAll and the experiment registry both suites share live in
// registry.go.
