package core

// Extension experiment E20: the reconciliation plane as a competing
// workload. Modern control planes run closed-loop controllers that
// continuously re-list managed objects and correct drift; that
// background work goes through the same admission slots, worker
// threads, lock tables, and management-DB connections as user
// provisioning. E20 measures the interference three ways. The main grid
// runs a closed-loop deploy workload against clouds with the drift and
// catalog controllers enabled, sweeping reconcile interval × queue
// depth × shard count (plus a reconcile-off baseline per shard count):
// foreground goodput and p99 degrade as the resync interval shrinks and
// the queue depth grows, and sharding buys headroom back — except for
// the catalog fan-out, which is host-less and pins the home shard. A
// second leg triggers a drift storm: a host failure restarts a fleet
// through HA, every restarted VM's observed config diverges at once,
// and the storm of corrections collides with foreground provisioning. A
// third leg overfills datastores and lets the "thundering rebalance"
// controller drain them through storage migrations.
//
// E20 is an opt-in extension like E17/E18: reachable through
// RunExperiment / mcpbench -only E20, never part of the default E1..E16
// suite, so existing artifacts stay byte-identical.

import (
	"fmt"
	"io"

	"cloudmcp/internal/ha"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// E20Params configures the reconciliation-interference experiment.
type E20Params struct {
	Seed     int64
	HorizonS float64 // per leg
	Workers  int     // sweep pool bound (0 = GOMAXPROCS)
}

// The scenario legs' fleet sizes.
const (
	e20StormVMs = 64 // drift-storm fleet
	e20FillVMs  = 44 // rebalance-leg fleet
)

// E20Cell is one grid point's outcome. IntervalS == 0 is the
// reconcile-off baseline for that shard count (Depth is meaningless).
type E20Cell struct {
	Shards    int
	Depth     int
	IntervalS float64

	GoodPerHour float64 // successful foreground deploys/hour
	P99S        float64 // foreground deploy p99 latency
	DBUtil      float64 // management DB utilization

	ReconcileRuns int64   // reconciliations executed across controllers
	ThrottleS     float64 // seconds reconcilers waited on rate limiters
}

// E20Storm is the drift-storm leg: foreground service before and after
// a host failure floods the drift controller.
type E20Storm struct {
	FleetVMs  int // powered-on fleet deployed before the failure
	Affected  int // VMs on the failed host
	Restarted int // VMs HA brought back elsewhere
	Marked    int // keys force-enqueued on the drift controller

	DriftRuns   int64
	DriftErrors int64

	PreGoodPerHour  float64 // foreground deploys/hour before the failure
	PreP99S         float64
	PostGoodPerHour float64 // and after, with the correction storm running
	PostP99S        float64
}

// E20Rebalance is the thundering-rebalance leg: overfilled datastores
// drained by the rebalance controller.
type E20Rebalance struct {
	FleetVMs   int
	FillBefore float64 // max datastore fill fraction after the fill
	FillAfter  float64 // and at the horizon

	Runs      int64
	Errors    int64
	Retries   int64
	Drops     int64
	ThrottleS float64
}

// E20Result holds the grid plus the two scenario legs.
type E20Result struct {
	Cells     []E20Cell
	Storm     E20Storm
	Rebalance E20Rebalance
	// Heaviest carries per-controller rows from the heaviest grid point
	// (smallest interval, largest depth, largest shard count).
	Heaviest []report.ReconcileRow
}

// e20Loop is E20's closed-loop leg as data: shard count × a reconcile
// dimension whose first level is off and whose others run the drift and
// catalog controllers at each depth × interval. Linked clones run on
// E18's de-bottlenecked data plane, so the managers are the constraint.
// The wide catalog (48 templates vs the default 6) makes each resync a
// real fan-out, and the elevated drift rate keeps the workqueues fed.
//
// Each list runs from light to heavy load (intervals shrink), so the last
// point is the heaviest.
type e20Loop struct {
	shards     []int
	depths     []int
	intervalsS []float64
	clients    int
}

// e20 is the registry's grid.
var e20 = e20Loop{shards: []int{1, 4}, depths: []int{1, 4}, intervalsS: []float64{600, 300, 120, 60}, clients: 64}

func (d e20Loop) grid(horizonS float64) Grid {
	rec := Dim{Name: "reconcile", Levels: []Level{{Label: "off", Sets: []string{"reconcile=null"}}}}
	for _, depth := range d.depths {
		for _, iv := range d.intervalsS {
			rec.Levels = append(rec.Levels, Level{
				Label: fmt.Sprintf("depth %d interval %g", depth, iv),
				Sets: []string{fmt.Sprintf(`reconcile={"controllers":[%q,%q],"intervalS":%g,"depth":%d,"ratePerS":4,"burst":8,"driftRate":0.25}`,
					reconcile.ControllerDrift, reconcile.ControllerCatalog, iv, depth)},
			})
		}
	}
	return Grid{
		Base:    append([]string{"director.fastProvisioning=true", "topology.templates=48"}, e18Base...),
		Dims:    []Dim{Vary("plane.shards", d.shards...), rec},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE20 runs the interference grid, then the drift-storm and
// thundering-rebalance legs serially (each is a pure function of the
// seed, so the artifact is identical across sweep worker counts).
func RunE20(p E20Params) (*E20Result, error) { return e20.run(p) }

func (d e20Loop) run(p E20Params) (*E20Result, error) {
	rows, err := d.grid(p.HorizonS).Run(DefaultLoader(p.Seed), sweep.Options{MasterSeed: p.Seed, Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	res := &E20Result{}
	for _, row := range rows {
		r := row.Result
		c := E20Cell{Shards: d.shards[row.Levels[0]], GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS, DBUtil: r.DBUtil}
		if level := row.Levels[1] - 1; level >= 0 {
			c.Depth, c.IntervalS = d.depths[level/len(d.intervalsS)], d.intervalsS[level%len(d.intervalsS)]
		}
		for _, s := range r.Reconcile {
			c.ReconcileRuns += s.Runs
			c.ThrottleS += s.ThrottleS
		}
		res.Cells = append(res.Cells, c)
	}
	res.Heaviest = reconcileRows(rows[len(rows)-1].Result.Reconcile)
	if res.Storm, err = e20DriftStorm(p); err != nil {
		return nil, fmt.Errorf("E20 storm: %w", err)
	}
	if res.Rebalance, err = e20Rebalance(p); err != nil {
		return nil, fmt.Errorf("E20 rebalance: %w", err)
	}
	return res, nil
}

// e20DriftStorm deploys a powered-on fleet, runs foreground deploy→
// destroy workers throughout, fails the busiest host at the half-way
// mark, and marks every VM drifted — HA's restart burst plus the drift
// controller's correction storm land on the management plane at once.
func e20DriftStorm(p E20Params) (E20Storm, error) {
	cfg := DefaultConfig(p.Seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0
	cfg.Topology.DatastoreMBps = 4000
	cfg.Director.MaxChainLen = 1 << 20
	rc := reconcile.DefaultConfig()
	rc.Controllers = []string{reconcile.ControllerDrift}
	rc.IntervalS, rc.Depth, rc.RatePerS, rc.Burst, rc.DriftRate = 300, 4, 4, 8, 0.05
	cfg.Reconcile = &rc
	c, err := New(cfg)
	if err != nil {
		return E20Storm{}, err
	}
	eng, err := ha.New(c.Env(), c.Manager(), ha.DefaultConfig())
	if err != nil {
		return E20Storm{}, err
	}
	H := p.HorizonS
	st := E20Storm{FleetVMs: e20StormVMs}
	// 32 foreground clients, measured before vs after the failure. After
	// the crash the whole inventory is marked drifted: every restarted
	// (and bystander) VM re-reconciles at once.
	runFailoverStorm(c, eng, e20StormVMs, 32, "e20.storm", H, func(fo *ha.Failover) {
		st.Affected = fo.Affected
		st.Restarted = fo.Restarted
		st.Marked = c.Reconcile().MarkDrifted(c.Inventory().VMs())
	})
	window := func(lo, hi float64) (float64, float64) {
		perHour, lat, _ := deployWindow(c, lo, hi)
		return perHour, lat.Percentile(99)
	}
	// Pre window skips the fleet ramp-up quarter.
	st.PreGoodPerHour, st.PreP99S = window(H/4, H/2)
	st.PostGoodPerHour, st.PostP99S = window(H/2, H)
	for _, s := range c.ReconcileStats() {
		if s.Controller == reconcile.ControllerDrift {
			st.DriftRuns = s.Runs
			st.DriftErrors = s.Errors
		}
	}
	return st, nil
}

// e20Rebalance crams full-clone VMs onto the first half of a set of
// small datastores, then lets the rebalance controller thunder: every
// resident VM of an overfull datastore is enqueued at once and drains
// through storage migrations to the empty datastores. The small
// template and fast spindles keep the fill phase well inside the first
// resync interval even at -quick horizons (deploys to one datastore
// serialize on its lock).
func e20Rebalance(p E20Params) (E20Rebalance, error) {
	cfg := DefaultConfig(p.Seed)
	cfg.Director.RebalanceThreshold = 0 // only the reconciler rebalances
	cfg.Topology.DatastoreGB = 120
	cfg.Topology.TemplateDiskGB = 8
	cfg.Topology.DatastoreMBps = 4000
	rc := reconcile.DefaultConfig()
	rc.Controllers = []string{reconcile.ControllerRebalance}
	rc.IntervalS, rc.Depth, rc.RatePerS, rc.Burst, rc.FillFraction = 120, 4, 4, 8, 0.6
	cfg.Reconcile = &rc
	c, err := New(cfg)
	if err != nil {
		return E20Rebalance{}, err
	}
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	mgr := c.Manager()
	hosts := inv.Hosts()
	dss := inv.Datastores()
	maxFill := func() float64 {
		var m float64
		for _, id := range dss {
			if f := inv.Datastore(id).FillFraction(); f > m {
				m = f
			}
		}
		return m
	}
	st := E20Rebalance{FleetVMs: e20FillVMs}
	// Fill the first two datastores with full clones.
	const fillers = 4
	per := (e20FillVMs + fillers - 1) / fillers
	remaining := fillers
	for i := 0; i < fillers; i++ {
		i := i
		c.Go(fmt.Sprintf("fill%d", i), func(fp *sim.Proc) {
			for j := 0; j < per; j++ {
				n := i*per + j
				if n >= e20FillVMs {
					break
				}
				host := inv.Host(hosts[n%len(hosts)])
				ds := inv.Datastore(dss[n%(len(dss)/2)])
				mgr.DeployVM(fp, "fill", tpl, host, ds, ops.FullClone, mgmt.ReqCtx{Org: "fill"})
			}
			remaining--
			if remaining == 0 {
				st.FillBefore = maxFill()
			}
		})
	}
	c.Run(p.HorizonS)
	st.FillAfter = maxFill()
	for _, s := range c.ReconcileStats() {
		st.Runs = s.Runs
		st.Errors = s.Errors
		st.Retries = s.Retries
		st.Drops = s.Drops
		st.ThrottleS = s.ThrottleS
	}
	return st, nil
}

// Render writes the interference grid, the two scenario legs, and the
// per-controller breakdown for the heaviest grid point.
func (r *E20Result) Render(w io.Writer) error {
	gt := report.NewTable("E20: foreground goodput vs reconcile interval x depth x shards",
		"shards", "depth", "interval s", "good/h", "p99 s", "db util", "reconcile runs", "throttle s")
	for _, c := range r.Cells {
		if c.IntervalS == 0 {
			gt.AddRow(c.Shards, "-", "off", c.GoodPerHour, c.P99S, c.DBUtil, c.ReconcileRuns, c.ThrottleS)
			continue
		}
		gt.AddRow(c.Shards, c.Depth, c.IntervalS, c.GoodPerHour, c.P99S, c.DBUtil, c.ReconcileRuns, c.ThrottleS)
	}
	if err := gt.Render(w); err != nil {
		return err
	}
	s := r.Storm
	stormT := report.NewTable("E20: drift storm after a host failure",
		"fleet", "affected", "restarted", "marked", "drift runs", "drift err",
		"pre good/h", "pre p99 s", "post good/h", "post p99 s")
	stormT.AddRow(s.FleetVMs, s.Affected, s.Restarted, s.Marked, s.DriftRuns, s.DriftErrors,
		s.PreGoodPerHour, s.PreP99S, s.PostGoodPerHour, s.PostP99S)
	if err := stormT.Render(w); err != nil {
		return err
	}
	b := r.Rebalance
	rbT := report.NewTable("E20: thundering rebalance on datastore fill",
		"fleet", "fill before", "fill after", "runs", "errors", "retries", "drops", "throttle s")
	rbT.AddRow(b.FleetVMs, b.FillBefore, b.FillAfter, b.Runs, b.Errors, b.Retries, b.Drops, b.ThrottleS)
	if err := rbT.Render(w); err != nil {
		return err
	}
	if ht := report.ReconcileTable(r.Heaviest); ht != nil {
		return ht.Render(w)
	}
	return nil
}
