package core

// The operations experiments E13..E16 (not in the paper; see
// EXPERIMENTS.md): database group-commit batching, host maintenance
// under load, trace replay what-if analysis, and HA restart storms.

import (
	"fmt"
	"io"
	"slices"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/workload"
)

// ---------------------------------------------------------------------
// E13 — database group-commit batching ablation. With the WAL database
// model and per-commit flushing, the management database becomes the
// binding control-plane stage at cloud provisioning rates; widening the
// group-commit window amortizes flushes and restores throughput.

// E13Point is one window's outcome.
type E13Point struct {
	WindowS       float64
	LinkedPerHour float64
	MeanLatS      float64
	DB            mgmtdb.Stats
}

// E13Result holds the sweep.
type E13Result struct{ Points []E13Point }

// e13Sweep is E13's grid: the group-commit window of a deliberately
// slow database (few connections and expensive flushes, paper-era
// hardware) under closed-loop linked-clone load with rebalancing and
// shadow churn off. Its clients think a constant 0.2 s.
type e13Sweep struct {
	windowsS []float64
	clients  int
}

var e13 = e13Sweep{windowsS: []float64{0, 0.01, 0.05, 0.2}, clients: 64}

func (d e13Sweep) grid(horizonS float64) Grid {
	db := Dim{Name: "mgmt.database"}
	for _, w := range d.windowsS {
		db.Levels = append(db.Levels, Level{Label: fmt.Sprint(w), Sets: []string{
			fmt.Sprintf(`mgmt.database={"conns":4,"writeS":0.01,"flushS":0.25,"groupWindowS":%v}`, w)}})
	}
	return Grid{
		Base:    []string{"director.fastProvisioning=true", "director.rebalanceThreshold=0", "director.maxChainLen=1073741824"},
		Dims:    []Dim{db},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE13 sweeps the group-commit window at fixed saturating concurrency.
// HorizonS is per point, the first 10% warmup.
func RunE13(p Params) (*E13Result, error) { return e13.run(p) }

func (d e13Sweep) run(p Params) (*E13Result, error) {
	g := d.grid(p.HorizonS)
	load, opts := p.sweep()
	points, err := RunGrid(g, load, opts,
		func(pt GridRow) (E13Point, error) {
			c, err := New(pt.Config)
			if err != nil {
				return E13Point{}, err
			}
			defer c.Close()
			r := runClosedLoopOn(c, pt.Clients, g.HorizonS, g.WarmupS, func() float64 { return 0.2 })
			return E13Point{WindowS: d.windowsS[pt.Levels[0]], LinkedPerHour: r.DeploysPerHour, MeanLatS: r.MeanLatencyS, DB: c.Manager().DB().WALStats()}, nil
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

// E14Point is one load level's evacuation outcome.
type E14Point struct {
	RatePerHour float64
	EvacuationS float64
	Migrations  int
	DeploysDone int
}

// E14Result holds the experiment.
type E14Result struct{ Points []E14Point }

// e14Sweep is E14's grid: the background open-loop deploy rate against
// a paper-era manager, so that load actually contends, with hostVMs
// linked clones resident on the host entering maintenance.
type e14Sweep struct {
	rates   []float64
	hostVMs int
}

var e14 = e14Sweep{rates: []float64{0, 2000, 6000}, hostVMs: 12}

func (d e14Sweep) grid() Grid {
	return Grid{Base: paperEra, Dims: []Dim{axis("rate", d.rates...)}}
}

// RunE14 measures evacuation time of a loaded host at each background
// provisioning rate. HorizonS is per point, maintenance at 1/3.
func RunE14(p Params) (*E14Result, error) { return e14.run(p) }

func (d e14Sweep) run(p Params) (*E14Result, error) {
	load, opts := p.sweep()
	points, err := RunGrid(d.grid(), load, opts,
		func(pt GridRow) (E14Point, error) {
			rate := d.rates[pt.Levels[0]]
			c, err := New(pt.Config)
			if err != nil {
				return E14Point{}, err
			}
			defer c.Close()
			target := loadResidentHost(c, d.hostVMs, rate, p.HorizonS)
			var evac *mgmt.Task
			c.Go("admin", func(ap *sim.Proc) {
				ap.Sleep(p.HorizonS / 3)
				evac = c.Manager().EnterMaintenance(ap, target, mgmt.ReqCtx{Org: "admin"})
			})
			c.Run(p.HorizonS * 4) // let the evacuation finish even under load
			if evac == nil {
				return E14Point{}, fmt.Errorf("E14 rate %.0f: evacuation never finished", rate)
			}
			if evac.Err != nil {
				return E14Point{}, fmt.Errorf("E14 rate %.0f: evacuation failed: %v", rate, evac.Err)
			}
			migs := 0
			for _, r := range c.Records() {
				if r.Kind == ops.KindMigrate.String() && r.Org == "admin" && r.Err == "" {
					migs++
				}
			}
			deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
			return E14Point{
				RatePerHour: rate,
				EvacuationS: evac.Latency(),
				Migrations:  migs,
				DeploysDone: len(deploys),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E14Result{Points: points}, nil
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

// e15Sweep is E15's replay grid: director cells, deliberately small (2
// threads) so the tier matters, with rebalancing off. It loads at the
// recording's seed + 1, so the replays draw fresh randomness.
type e15Sweep struct{ cells []int }

var e15 = e15Sweep{cells: []int{1, 4}}

func (d e15Sweep) grid() Grid {
	return Grid{
		Base: []string{"director.cellThreads=2", "director.rebalanceThreshold=0"},
		Dims: []Dim{Vary("director.cells", d.cells...)},
	}
}

// RunE15 records a high-rate CloudA variant and replays it against each
// cell count with deliberately small cells. HorizonS is the recording;
// each replay runs 1.5x as long.
func RunE15(p Params) (*E15Result, error) { return e15.run(p) }

func (d e15Sweep) run(p Params) (*E15Result, error) {

	// Record once.
	recCfg, err := DefaultLoader(p.Seed)("director.rebalanceThreshold=0")
	if err != nil {
		return nil, err
	}
	rc, err := New(recCfg)
	if err != nil {
		return nil, err
	}
	pr := workload.CloudA()
	pr.BaseRatePerHour = 2500 // a very busy day — enough to saturate one small cell
	pr.DiurnalAmplitude = 0   // flat, so short recordings carry the full rate
	pr.LifetimeMeanS = 900
	_, err = rc.RunProfile(pr, p.HorizonS)
	recorded := rc.Records()
	rc.Close() // the replays below read only the recording
	if err != nil {
		return nil, err
	}

	_, opts := p.sweep()
	points, err := RunGrid(d.grid(), DefaultLoader(p.Seed+1), opts,
		func(pt GridRow) (E15Point, error) {
			c, err := New(pt.Config)
			if err != nil {
				return E15Point{}, err
			}
			defer c.Close()
			rp, err := workload.NewReplayer(c.Env(), c.Director(), recorded)
			if err != nil {
				return E15Point{}, err
			}
			rp.Start()
			c.Run(p.HorizonS * 1.5)
			deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
			lat := analysis.LatencySample(deploys, "")
			bd, _ := analysis.MeanBreakdown(deploys, "")
			return E15Point{
				Cells:        d.cells[pt.Levels[0]],
				Issued:       rp.Stats().Issued,
				DeployMeanS:  lat.Mean(),
				DeployP95S:   lat.Percentile(95),
				DeployQueueS: bd.Queue,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E15Result{Recorded: len(recorded), Points: points}, nil
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

// ---------------------------------------------------------------------
// E16 — HA restart storms. A host failure converts instantly into a
// burst of management operations (re-registrations and power-ons);
// recovery time therefore depends on how busy the control plane already
// is — the failure-induced analogue of E14.

// E16Point is one load level's recovery outcome.
type E16Point struct {
	RatePerHour float64
	RecoveryS   float64
	Restarted   int
	Unplaced    int
	DeploysDone int
}

// E16Result holds the experiment.
type E16Result struct{ Points []E16Point }

// e16Restarts is the HA engine's restart concurrency.
const e16Restarts = 32

// e16Storm is E16's grid: the background open-loop deploy rate against
// a paper-era manager, as in E7/E14, with hostVMs powered-on VMs on the
// host that fails. E17 runs it with a faults.rate base.
type e16Storm struct {
	rates   []float64
	hostVMs int
}

var e16 = e16Storm{rates: []float64{0, 2000, 6000}, hostVMs: 16}

func (d e16Storm) grid(base ...string) Grid {
	return Grid{Base: slices.Concat(paperEra, base), Dims: []Dim{axis("rate", d.rates...)}}
}

// RunE16 fails a loaded host at each background rate and measures the
// restart storm. HorizonS is per point, failure at 2/3.
func RunE16(p Params) (*E16Result, error) {
	points, err := e16.run(p)
	if err != nil {
		return nil, err
	}
	return &E16Result{Points: points}, nil
}

// run runs the storm at every rate over the base overrides.
func (d e16Storm) run(p Params, base ...string) ([]E16Point, error) {
	load, opts := p.sweep()
	return RunGrid(d.grid(base...), load, opts, func(pt GridRow) (E16Point, error) {
		rate := d.rates[pt.Levels[0]]
		c, err := New(pt.Config)
		if err != nil {
			return E16Point{}, err
		}
		defer c.Close()
		eng, err := ha.New(c.Env(), c.Plane(), c.Policy().Failover, ha.Config{MaxConcurrentRestarts: e16Restarts})
		if err != nil {
			return E16Point{}, err
		}
		target := loadResidentHost(c, d.hostVMs, rate, p.HorizonS)
		var fo *ha.Failover
		c.Go("failure", func(fp *sim.Proc) {
			// Fail deep into the run, once the background stream has
			// pushed the manager into its saturated regime.
			fp.Sleep(p.HorizonS * 2 / 3)
			fo = eng.FailHost(fp, target)
		})
		c.Run(p.HorizonS * 4)
		if fo == nil {
			return E16Point{}, fmt.Errorf("E16 rate %.0f: failover never completed", rate)
		}
		deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
		return E16Point{
			RatePerHour: rate,
			RecoveryS:   fo.Duration(),
			Restarted:   fo.Restarted,
			Unplaced:    fo.Unplaced,
			DeploysDone: len(deploys),
		}, nil
	})
}

// Render writes the restart-storm table.
func (r *E16Result) Render(w io.Writer) error {
	t := report.NewTable("E16: HA restart-storm recovery time vs background load",
		"bg req/h", "recovery s", "restarted", "unplaced", "bg deploys done")
	for _, pt := range r.Points {
		t.AddRow(pt.RatePerHour, pt.RecoveryS, pt.Restarted, pt.Unplaced, pt.DeploysDone)
	}
	return t.Render(w)
}
