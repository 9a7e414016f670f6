package core

// The control-plane design experiments E8..E12: reconfiguration
// pressure, manager queueing, and the design-implication ablations
// (director cells, lock granularity, catalog operations).

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
)

// ---------------------------------------------------------------------
// E8 — reconfiguration pressure: how provisioning rate drives the
// previously-rare cloud reconfiguration operations (shadow-template
// creation under linked clones; datastore rebalancing under sticky
// placement).

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

// e8Sweep is E8's grid: open-loop deploy rate × mode. Linked clones
// capped at maxChainLen per shadow base churn shadow templates; sticky
// full clones on tighter datastores churn rebalancing.
type e8Sweep struct {
	rates       []float64
	maxChainLen int
}

var e8 = e8Sweep{rates: []float64{50, 100, 200, 400, 800}, maxChainLen: 8}

func (d e8Sweep) grid() Grid {
	mode := Dim{Name: "mode", Levels: []Level{
		{Label: "linked", Sets: []string{"director.fastProvisioning=true", "director.rebalanceThreshold=0",
			fmt.Sprintf("director.maxChainLen=%d", d.maxChainLen)}},
		{Label: "sticky", Sets: []string{"director.fastProvisioning=false", "director.placement=sticky-org",
			"director.rebalanceThreshold=0.05", "director.rebalanceCheckS=600", "director.rebalanceBatch=8",
			"topology.datastoreGB=2000"}},
	}}
	return Grid{Dims: []Dim{axis("rate", d.rates...), mode}}
}

// RunE8 sweeps the provisioning rate and measures both reconfiguration
// mechanisms. HorizonS is per point.
func RunE8(p Params) (*E8Result, error) { return e8.run(p) }

func (d e8Sweep) run(p Params) (*E8Result, error) {
	hours := p.HorizonS / Hour
	load, opts := p.sweep()
	modes, err := RunGrid(d.grid(), load, opts,
		func(pt GridRow) (E8Point, error) {
			c, err := openLoopCloud(pt.Config, d.rates[pt.Levels[0]], p.HorizonS, 900)
			if err != nil {
				return E8Point{}, err
			}
			defer c.Close()
			st := c.Director().Stats()
			return E8Point{
				Deploys:         len(analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))),
				ShadowsPerHour:  float64(st.ShadowCopies) / hours,
				RebalStartsPerH: float64(st.RebalanceStarts) / hours,
				MovesPerHour:    float64(st.RebalanceMoves) / hours,
				EndImbalance:    c.Storage().Imbalance(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	// Each rate's linked run reports the shadow churn, its sticky run
	// the rebalancing.
	res := &E8Result{}
	for i, rate := range d.rates {
		linked, sticky := modes[2*i], modes[2*i+1]
		res.Points = append(res.Points, E8Point{RatePerHour: rate, Deploys: linked.Deploys, ShadowsPerHour: linked.ShadowsPerHour,
			RebalStartsPerH: sticky.RebalStartsPerH, MovesPerHour: sticky.MovesPerHour, EndImbalance: sticky.EndImbalance})
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
// using the same paper-era manager sizing as E7. HorizonS is per point.
func RunE9(p Params) (*E9Result, error) { return e7e9.e9(p) }

func (d loadSweep) e9(p Params) (*E9Result, error) {
	points, err := d.run(p)
	if err != nil {
		return nil, err
	}
	res := &E9Result{}
	for _, pt := range points {
		res.Points = append(res.Points, pt.e9)
	}
	return res, nil
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

// E10Point is one cell count's throughput.
type E10Point struct {
	Cells         int
	LinkedPerHour float64
	MeanLatS      float64
}

// E10Result holds the ablation.
type E10Result struct{ Points []E10Point }

// e10Sweep is E10's grid: director cells at fixed saturating
// concurrency under linked clones. Cells are deliberately small (2
// threads) and shadow churn is off, so the cell tier is the binding
// stage, which is what this ablation isolates.
type e10Sweep struct {
	cells   []int
	clients int
}

var e10 = e10Sweep{cells: []int{1, 2, 4, 8}, clients: 64}

func (d e10Sweep) grid(horizonS float64) Grid {
	return Grid{
		Base: []string{"director.fastProvisioning=true", "director.rebalanceThreshold=0",
			"director.cellThreads=2", "director.maxChainLen=1073741824"},
		Dims:    []Dim{Vary("director.cells", d.cells...)},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE10 sweeps the number of cells at fixed saturating concurrency.
// HorizonS is per point, the first 10% warmup.
func RunE10(p Params) (*E10Result, error) { return e10.run(p) }

func (d e10Sweep) run(p Params) (*E10Result, error) {
	rows, err := d.grid(p.HorizonS).Run(p.sweep())
	if err != nil {
		return nil, err
	}
	res := &E10Result{}
	for i, r := range rows {
		res.Points = append(res.Points, E10Point{Cells: d.cells[i], LinkedPerHour: r.Result.DeploysPerHour, MeanLatS: r.Result.MeanLatencyS})
	}
	return res, nil
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

// E11Point is one granularity's throughput.
type E11Point struct {
	Granularity   string
	LinkedPerHour float64
	MeanLatS      float64
}

// E11Result holds the ablation.
type E11Result struct{ Points []E11Point }

// e11Sweep is E11's grid: inventory lock granularity at fixed
// concurrency under linked clones, with rebalancing off.
type e11Sweep struct{ clients int }

var e11 = e11Sweep{clients: 64}

func (d e11Sweep) grid(horizonS float64) Grid {
	return Grid{
		Base:    []string{"director.fastProvisioning=true", "director.rebalanceThreshold=0"},
		Dims:    []Dim{Vary("mgmt.granularity", "coarse", "host", "entity")},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE11 compares coarse, host, and entity locking at fixed concurrency.
// HorizonS is per point, the first 10% warmup.
func RunE11(p Params) (*E11Result, error) { return e11.run(p) }

func (d e11Sweep) run(p Params) (*E11Result, error) {
	rows, err := d.grid(p.HorizonS).Run(p.sweep())
	if err != nil {
		return nil, err
	}
	res := &E11Result{}
	for _, r := range rows {
		res.Points = append(res.Points, E11Point{Granularity: r.Labels[0], LinkedPerHour: r.Result.DeploysPerHour, MeanLatS: r.Result.MeanLatencyS})
	}
	return res, nil
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

// e12Sweep is E12's grid: template size × load, with rebalancing off.
// The load is none (full clones, idle), closed-loop full-clone deploys,
// or closed-loop linked-clone deploys from `clients` clients.
type e12Sweep struct {
	sizesGB []float64
	clients int
}

var e12 = e12Sweep{sizesGB: []float64{4, 16, 64}, clients: 32}

func (d e12Sweep) grid() Grid {
	load := Dim{Name: "load", Levels: []Level{
		{Label: "idle", Sets: []string{"director.fastProvisioning=false"}},
		{Label: "full", Sets: []string{"director.fastProvisioning=false"}},
		{Label: "linked", Sets: []string{"director.fastProvisioning=true"}},
	}}
	return Grid{
		Base: []string{"director.rebalanceThreshold=0"},
		Dims: []Dim{Vary("topology.templateDiskGB", d.sizesGB...), load},
	}
}

// RunE12 measures catalog publishes on an idle cloud and under
// concurrent full-clone and linked-clone provisioning load. The contrast
// between the two loaded cases shows fast provisioning relieving the
// data-plane contention that catalog operations suffer. HorizonS is per
// point.
func RunE12(p Params) (*E12Result, error) { return e12.run(p) }

func (d e12Sweep) run(p Params) (*E12Result, error) {
	type publish struct {
		latency float64
		deploys int
	}
	load, opts := p.sweep()
	runs, err := RunGrid(d.grid(), load, opts,
		func(pt GridRow) (publish, error) {
			size := d.sizesGB[pt.Levels[0]]
			c, err := New(pt.Config)
			if err != nil {
				return publish{}, err
			}
			defer c.Close()
			inv := c.Inventory()
			tpl := inv.Template(inv.Templates()[0])
			if pt.Levels[1] > 0 {
				startClosedLoop(c, d.clients, p.HorizonS, thinkTime(p.Seed, "e12"))
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
			return publish{latency, len(analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String())))}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &E12Result{}
	for i, size := range d.sizesGB {
		idle, full, linked := runs[3*i], runs[3*i+1], runs[3*i+2]
		res.Points = append(res.Points, E12Point{
			SizeGB: size, IdleS: idle.latency, FullLoadS: full.latency, LinkedLoadS: linked.latency,
			FullDeploys: full.deploys, LinkDeploys: linked.deploys,
		})
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
