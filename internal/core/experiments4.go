package core

// Extension experiment E16: HA restart storms. A host failure converts
// instantly into a burst of management operations (re-registrations and
// power-ons); recovery time therefore depends on how busy the control
// plane already is — the failure-induced analogue of E14.

import (
	"fmt"
	"io"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
)

// E16Params configures the restart-storm experiment.
type E16Params struct {
	Seed         int64
	HostVMs      int       // powered-on VMs on the failing host, default 16
	RatesPerHour []float64 // background deploy load, default {0, 2000, 6000}
	Restarts     int       // HA restart concurrency, default 32
	HorizonS     float64   // default 30 min (failure at 1/3)
	// Faults injects control-plane faults into every run (E17's "storm
	// on an already-faulty control plane" leg); nil keeps E16 as-is.
	Faults *faults.Config
}

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

// RunE16 fails a loaded host at each background rate and measures the
// restart storm.
func RunE16(p E16Params) (*E16Result, error) {
	if p.HostVMs == 0 {
		p.HostVMs = 16
	}
	if len(p.RatesPerHour) == 0 {
		p.RatesPerHour = []float64{0, 2000, 6000}
	}
	if p.Restarts == 0 {
		p.Restarts = 32
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	res := &E16Result{}
	for _, rate := range p.RatesPerHour {
		rate := rate
		cfg := DefaultConfig(p.Seed)
		cfg.Director.RebalanceThreshold = 0
		cfg.Mgmt.Threads = 4 // paper-era manager, as in E7/E14
		cfg.Mgmt.DBConns = 2
		cfg.Faults = p.Faults
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		eng, err := ha.New(c.Env(), c.Manager(), ha.Config{MaxConcurrentRestarts: p.Restarts})
		if err != nil {
			return nil, err
		}
		target := loadResidentHost(c, p.HostVMs, rate, p.HorizonS)
		var fo *ha.Failover
		c.Go("failure", func(fp *sim.Proc) {
			// Fail deep into the run, once the background stream has
			// pushed the manager into its saturated regime.
			fp.Sleep(p.HorizonS * 2 / 3)
			fo = eng.FailHost(fp, target)
		})
		c.Run(p.HorizonS * 4)
		if fo == nil {
			return nil, fmt.Errorf("E16 rate %.0f: failover never completed", rate)
		}
		deploys := analysis.FilterOK(analysis.FilterKind(c.Records(), ops.KindDeploy.String()))
		res.Points = append(res.Points, E16Point{
			RatePerHour: rate,
			RecoveryS:   fo.Duration(),
			Restarted:   fo.Restarted,
			Unplaced:    fo.Unplaced,
			DeploysDone: len(deploys),
		})
	}
	return res, nil
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
