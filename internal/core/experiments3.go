package core

// Extension experiments E13..E15 (not in the paper; see EXPERIMENTS.md):
// database group-commit batching, host maintenance under load, and trace
// replay what-if analysis.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
	"cloudmcp/internal/workload"
)

// ---------------------------------------------------------------------
// E13 — database group-commit batching ablation. With the WAL database
// model and per-commit flushing, the management database becomes the
// binding control-plane stage at cloud provisioning rates; widening the
// group-commit window amortizes flushes and restores throughput.

// E13Params configures the batching sweep.
type E13Params struct {
	Seed         int64
	WindowsS     []float64 // group-commit windows; default 0..0.2
	Workers      int       // closed-loop clients, default 64
	HorizonS     float64   // default 30 min
	SweepWorkers int       // sweep worker pool; 0 = GOMAXPROCS
}

// E13Point is one window's outcome.
type E13Point struct {
	WindowS       float64
	LinkedPerHour float64
	MeanLatS      float64
	DB            mgmtdb.Stats
}

// E13Result holds the sweep.
type E13Result struct{ Points []E13Point }

// e13DB returns the deliberately slow database the ablation stresses:
// few connections and expensive flushes, paper-era hardware.
func e13DB(window float64) *mgmtdb.Config {
	return &mgmtdb.Config{Conns: 4, WriteS: 0.01, FlushS: 0.25, GroupWindowS: window}
}

// RunE13 sweeps the group-commit window at fixed saturating concurrency.
func RunE13(p E13Params) (*E13Result, error) {
	if len(p.WindowsS) == 0 {
		p.WindowsS = []float64{0, 0.01, 0.05, 0.2}
	}
	if p.Workers == 0 {
		p.Workers = 64
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	points, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.SweepWorkers}, len(p.WindowsS),
		func(sp sweep.Point) (E13Point, error) {
			w := p.WindowsS[sp.Index]
			cfg := DefaultConfig(p.Seed)
			cfg.Director.FastProvisioning = true
			cfg.Director.RebalanceThreshold = 0
			cfg.Director.MaxChainLen = 1 << 30
			cfg.Mgmt.Database = e13DB(w)
			c, err := New(cfg)
			if err != nil {
				return E13Point{}, err
			}
			r := runClosedLoopOn(c, p.Workers, p.HorizonS, p.HorizonS/10, func() float64 { return 0.2 })
			st, _ := c.Manager().WALStats()
			return E13Point{WindowS: w, LinkedPerHour: r.DeploysPerHour, MeanLatS: r.MeanLatencyS, DB: st}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E13Result{Points: points}, nil
}

// Render writes the batching table.
func (r *E13Result) Render(w io.Writer) error {
	t := report.NewTable("E13: DB group-commit window vs provisioning throughput",
		"window s", "deploys/h", "mean lat s", "commits", "flushes", "group size", "commit lat s")
	for _, pt := range r.Points {
		t.AddRow(pt.WindowS, pt.LinkedPerHour, pt.MeanLatS,
			pt.DB.Commits, pt.DB.Flushes, pt.DB.MeanGroupSize, pt.DB.MeanCommitLat)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E14 — host evacuation (enter maintenance mode) under cloud load. The
// evacuation is a train of live migrations that competes with the
// self-service stream, so maintenance windows stretch exactly when the
// cloud is busiest.

// E14Params configures the maintenance experiment.
type E14Params struct {
	Seed         int64
	HostVMs      int       // VMs resident on the host entering maintenance, default 12
	RatesPerHour []float64 // background deploy load levels, default {0, 400, 1600}
	HorizonS     float64   // default 30 min (maintenance starts at 1/3)
}

// E14Point is one load level's evacuation outcome.
type E14Point struct {
	RatePerHour float64
	EvacuationS float64
	Migrations  int
	DeploysDone int
}

// E14Result holds the experiment.
type E14Result struct{ Points []E14Point }

// RunE14 measures evacuation time of a loaded host at each background
// provisioning rate.
func RunE14(p E14Params) (*E14Result, error) {
	if p.HostVMs == 0 {
		p.HostVMs = 12
	}
	if len(p.RatesPerHour) == 0 {
		p.RatesPerHour = []float64{0, 2000, 6000}
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	res := &E14Result{}
	for _, rate := range p.RatesPerHour {
		rate := rate
		cfg := DefaultConfig(p.Seed)
		cfg.Director.RebalanceThreshold = 0
		// Paper-era manager so that load actually contends.
		cfg.Mgmt.Threads = 4
		cfg.Mgmt.DBConns = 2
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		target := loadResidentHost(c, p.HostVMs, rate, p.HorizonS)
		var evac *mgmt.Task
		c.Go("admin", func(ap *sim.Proc) {
			ap.Sleep(p.HorizonS / 3)
			evac = c.Manager().EnterMaintenance(ap, target, mgmt.ReqCtx{Org: "admin"})
		})
		c.Run(p.HorizonS * 4) // let the evacuation finish even under load
		if evac == nil || evac.Err != nil {
			return nil, fmt.Errorf("E14 rate %.0f: evacuation failed: %v", rate, taskErr(evac))
		}
		migs := 0
		for _, r := range c.Records() {
			if r.Kind == ops.KindMigrate.String() && r.Org == "admin" && r.Err == "" {
				migs++
			}
		}
		deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
		res.Points = append(res.Points, E14Point{
			RatePerHour: rate,
			EvacuationS: evac.Latency(),
			Migrations:  migs,
			DeploysDone: len(deploys),
		})
	}
	return res, nil
}

func taskErr(t *mgmt.Task) error {
	if t == nil {
		return fmt.Errorf("no task")
	}
	return t.Err
}

// Render writes the evacuation table.
func (r *E14Result) Render(w io.Writer) error {
	t := report.NewTable("E14: host evacuation time vs background provisioning load",
		"bg req/h", "evacuation s", "migrations", "bg deploys done")
	for _, pt := range r.Points {
		t.AddRow(pt.RatePerHour, pt.EvacuationS, pt.Migrations, pt.DeploysDone)
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------
// E15 — trace replay what-if: record a busy self-service day once, then
// replay it against alternative control-plane configurations and compare
// what users would have experienced.

// E15Params configures the replay comparison.
type E15Params struct {
	Seed     int64
	RecordS  float64 // recording horizon, default 2 h
	Cells    []int   // configurations to replay against, default {1, 4}
	HorizonS float64 // replay horizon, default RecordS * 1.5
}

// E15Point is one configuration's replayed experience.
type E15Point struct {
	Cells        int
	Issued       int64
	DeployMeanS  float64
	DeployP95S   float64
	DeployQueueS float64 // mean queue component
}

// E15Result holds the comparison.
type E15Result struct {
	Recorded int
	Points   []E15Point
}

// RunE15 records a high-rate CloudA variant and replays it against each
// cell count with deliberately small cells.
func RunE15(p E15Params) (*E15Result, error) {
	if p.RecordS == 0 {
		p.RecordS = 2 * Hour
	}
	if len(p.Cells) == 0 {
		p.Cells = []int{1, 4}
	}
	if p.HorizonS == 0 {
		p.HorizonS = p.RecordS * 1.5
	}

	// Record once.
	recCfg := DefaultConfig(p.Seed)
	recCfg.Director.RebalanceThreshold = 0
	rc, err := New(recCfg)
	if err != nil {
		return nil, err
	}
	pr := workload.CloudA()
	pr.BaseRatePerHour = 2500 // a very busy day — enough to saturate one small cell
	pr.DiurnalAmplitude = 0   // flat, so short recordings carry the full rate
	pr.LifetimeMeanS = 900
	if _, err := rc.RunProfile(pr, p.RecordS); err != nil {
		return nil, err
	}
	recorded := rc.Records()
	res := &E15Result{Recorded: len(recorded)}

	for _, cells := range p.Cells {
		cfg := DefaultConfig(p.Seed + 1)
		cfg.Director.Cells = cells
		cfg.Director.CellThreads = 2 // small cells so the tier matters
		cfg.Director.RebalanceThreshold = 0
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		rp, err := workload.NewReplayer(c.Env(), c.Director(), recorded)
		if err != nil {
			return nil, err
		}
		rp.Start()
		c.Run(p.HorizonS)
		deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
		lat := analysis.LatencySample(deploys, "")
		bd, _ := analysis.MeanBreakdown(deploys, "")
		res.Points = append(res.Points, E15Point{
			Cells:        cells,
			Issued:       rp.Stats().Issued,
			DeployMeanS:  lat.Mean(),
			DeployP95S:   lat.Percentile(95),
			DeployQueueS: bd.Queue,
		})
	}
	return res, nil
}

// Render writes the what-if table.
func (r *E15Result) Render(w io.Writer) error {
	t := report.NewTable(
		fmt.Sprintf("E15: replaying a recorded day (%d ops) against alternative cell counts", r.Recorded),
		"cells", "ops issued", "deploy mean s", "deploy p95 s", "mean queue s")
	for _, pt := range r.Points {
		t.AddRow(pt.Cells, pt.Issued, pt.DeployMeanS, pt.DeployP95S, pt.DeployQueueS)
	}
	return t.Render(w)
}
