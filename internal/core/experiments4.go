package core

// Extension experiment E16: HA restart storms. A host failure converts
// instantly into a burst of management operations (re-registrations and
// power-ons); recovery time therefore depends on how busy the control
// plane already is — the failure-induced analogue of E14.

import (
	"fmt"
	"io"

	"slices"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// E16Params configures the restart-storm experiment.
type E16Params struct {
	Seed     int64
	HorizonS float64 // per point, failure at 2/3 (registry: 30 min)
	Workers  int     // sweep worker pool; 0 = GOMAXPROCS
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
// restart storm.
func RunE16(p E16Params) (*E16Result, error) {
	points, err := e16.run(p.Seed, p.HorizonS, sweep.Options{MasterSeed: p.Seed, Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	return &E16Result{Points: points}, nil
}

// run runs the storm at every rate over the base overrides.
func (d e16Storm) run(seed int64, horizonS float64, opts sweep.Options, base ...string) ([]E16Point, error) {
	return RunGrid(d.grid(base...), DefaultLoader(seed), opts, func(pt GridRow) (E16Point, error) {
		rate := d.rates[pt.Levels[0]]
		c, err := New(pt.Config)
		if err != nil {
			return E16Point{}, err
		}
		eng, err := ha.New(c.Env(), c.Manager(), ha.Config{MaxConcurrentRestarts: e16Restarts})
		if err != nil {
			return E16Point{}, err
		}
		target := loadResidentHost(c, d.hostVMs, rate, horizonS)
		var fo *ha.Failover
		c.Go("failure", func(fp *sim.Proc) {
			// Fail deep into the run, once the background stream has
			// pushed the manager into its saturated regime.
			fp.Sleep(horizonS * 2 / 3)
			fo = eng.FailHost(fp, target)
		})
		c.Run(horizonS * 4)
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
