package core

// Extension experiment E18: management-plane scale-out. The paper's
// headline finding is that self-service provisioning rates outgrow a
// single management server; E18 asks the follow-up question a capacity
// planner needs answered: what happens when you shard the management
// plane? A closed-loop deploy workload runs against clouds with 1, 2, 4,
// and 8 manager shards (package plane) in both database modes. With a
// shared management DB, admission and worker threads scale with the
// shard count but every shard contends on the same connection pool, so
// throughput rises until the DB saturates and then flattens — the
// bottleneck the paper predicts moves to the database. With per-shard
// DBs the knee shifts to higher shard counts and utilization stays
// spread. A second leg runs a live-migration storm at each shard count
// to measure how much work crosses shard boundaries and what the
// two-phase coordinator charges for it.
//
// E18 is an opt-in extension like E17: reachable through RunExperiment /
// mcpbench -only E18, never part of the default
// E1..E16 suite, so existing artifacts stay byte-identical.

import (
	"fmt"
	"io"

	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// E18Params configures the scale-out experiment.
type E18Params struct {
	Seed     int64
	HorizonS float64 // per closed-loop point and storm
	Workers  int     // sweep pool bound (0 = GOMAXPROCS)
}

// e18Loop is E18's closed-loop leg as data: shard count × DB mode ×
// provisioning mode, with rebalancing off to isolate provisioning.
//
// E18 measures the control plane, so the data plane is provisioned out
// of the way the same way E6 suppresses rebalance: linked clones
// concentrate on the template's home datastore (the director avoids
// shadow churn), so its spindle bandwidth — not the management plane —
// would cap throughput near 5 clones/s. An all-flash-class datastore and
// an uncapped chain (no ~55 s shadow refresh copies) leave the managers
// as the constraint.
type e18Loop struct {
	shards  []int
	clients int
}

// e18 is the registry's grid: 1 to 8 shards under 192 clients, past one
// shard's capacity.
var e18 = e18Loop{shards: []int{1, 2, 4, 8}, clients: 192}

// e18Base de-bottlenecks the data plane; E20 reuses it.
var e18Base = []string{"director.rebalanceThreshold=0", "topology.datastoreMBps=4000", "director.maxChainLen=1048576"}

// E18Grid is E18's closed-loop leg at horizonS, the grid of the
// mcpsweep command line in the Extensions comment.
func E18Grid(horizonS float64) Grid { return e18.grid(horizonS) }

func (d e18Loop) grid(horizonS float64) Grid {
	return Grid{
		Base: e18Base,
		Dims: []Dim{
			Vary("plane.shards", d.shards...),
			Vary("plane.db", plane.DBShared, plane.DBPerShard),
			Vary("director.fastProvisioning", false, true),
		},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// E18Cell is one (shard count, DB mode, clone mode) closed-loop outcome.
type E18Cell struct {
	GoodPerHour float64 // successful deploys/hour in the window
	P99S        float64 // deploy p99 latency in the window
	DBUtil      float64 // management DB utilization (mean across DBs in per-shard mode)
}

// E18Point is one shard count's outcomes across both DB and clone modes,
// plus the cross-shard coordination leg.
type E18Point struct {
	Shards int

	SharedFull     E18Cell
	SharedLinked   E18Cell
	PerShardFull   E18Cell
	PerShardLinked E18Cell

	// Cross-shard leg: a live-migration storm (shared DB) at this
	// shard count.
	Migrations int64   // migrations issued by the storm
	CrossOps   int64   // operations that crossed a shard boundary
	CrossShare float64 // percent of migrations that crossed
	CoordS     float64 // two-phase prepare/commit round-trip seconds
}

// E18Result holds the sweep.
type E18Result struct{ Points []E18Point }

// RunE18 runs the shard-count grid under both DB modes in both
// provisioning modes, then one migration storm per shard count measuring
// cross-shard coordination.
func RunE18(p E18Params) (*E18Result, error) { return e18.run(p) }

func (d e18Loop) run(p E18Params) (*E18Result, error) {
	opts := sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}
	rows, err := d.grid(p.HorizonS).Run(DefaultLoader(p.Seed), opts)
	if err != nil {
		return nil, err
	}
	// Cross-shard leg: live migration is the operation whose source and
	// destination hosts can land on different shards, but the
	// operational profiles issue migrations far too rarely (cloud-a:
	// 0.002 per VM-hour) to measure the coordinator. So the leg runs a
	// deterministic migration storm: each worker deploys one VM and then
	// live-migrates it between uniformly chosen hosts — the DRS-style
	// "any most-free host" destination that ignores shard boundaries —
	// and the plane reports how many moves crossed a shard and what the
	// two-phase coordinator charged.
	points, err := sweep.Run(opts, len(d.shards), func(sp sweep.Point) (E18Point, error) {
		// Each shard count's rows run shared full, shared linked,
		// per-shard full, then per-shard linked.
		cell := func(k int) E18Cell {
			r := rows[4*sp.Index+k].Result
			return E18Cell{GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS, DBUtil: r.DBUtil}
		}
		pt := E18Point{Shards: d.shards[sp.Index], SharedFull: cell(0), SharedLinked: cell(1), PerShardFull: cell(2), PerShardLinked: cell(3)}
		var err error
		pt.Migrations, pt.CrossOps, pt.CoordS, err = migrationStorm(p.Seed, pt.Shards, p.HorizonS)
		if err != nil {
			return pt, fmt.Errorf("E18 shards=%d storm: %w", pt.Shards, err)
		}
		if pt.Migrations > 0 {
			pt.CrossShare = 100 * float64(pt.CrossOps) / float64(pt.Migrations)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return &E18Result{Points: points}, nil
}

// migrationStorm runs the cross-shard leg: 64 workers each deploy one
// VM and then live-migrate it between stream-chosen hosts until the
// horizon. It returns the migrations issued plus the plane's cross-shard
// op count and coordinator seconds.
func migrationStorm(seed int64, shards int, horizonS float64) (migrations, crossOps int64, coordS float64, err error) {
	cfg := DefaultConfig(seed)
	cfg.Director.RebalanceThreshold = 0 // only the storm issues migrations
	cfg.Plane.Shards = shards
	cfg.Plane.DB = plane.DBShared
	c, err := New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	hosts := inv.Hosts()
	const workers = 64
	var issued int64
	for i := 0; i < workers; i++ {
		org := fmt.Sprintf("org%d", i%8)
		stream := rng.Derive(seed, fmt.Sprintf("e18.migrate.%d", i))
		c.Go(fmt.Sprintf("storm%d", i), func(p *sim.Proc) {
			res := c.Director().DeployVApp(p, org, tpl, 1, false)
			if res.Err != nil || res.VApp == nil || len(res.VApp.VMs) == 0 {
				return
			}
			vm := inv.VM(res.VApp.VMs[0])
			for vm != nil && p.Now() < horizonS {
				p.Sleep(stream.Uniform(0.5, 1.5))
				dst := inv.Host(hosts[stream.Intn(len(hosts))])
				if dst == nil || dst.ID == vm.HostID {
					continue
				}
				issued++
				c.Plane().Migrate(p, vm, dst, mgmt.ReqCtx{Org: org})
				vm = inv.VM(res.VApp.VMs[0])
			}
		})
	}
	c.Run(horizonS)
	ps := c.Plane().Stats()
	return issued, ps.CrossOps, ps.CoordS, nil
}

// Render writes the scale-out tables: closed-loop throughput/latency/DB
// utilization per shard count for both DB modes, then the cross-shard
// coordination leg.
func (r *E18Result) Render(w io.Writer) error {
	lt := report.NewTable("E18: linked-clone provisioning vs management shards",
		"shards", "shared good/h", "shared p99 s", "shared db util",
		"per-shard good/h", "per-shard p99 s", "per-shard db util")
	for _, pt := range r.Points {
		lt.AddRow(pt.Shards,
			pt.SharedLinked.GoodPerHour, pt.SharedLinked.P99S, pt.SharedLinked.DBUtil,
			pt.PerShardLinked.GoodPerHour, pt.PerShardLinked.P99S, pt.PerShardLinked.DBUtil)
	}
	if err := lt.Render(w); err != nil {
		return err
	}
	ft := report.NewTable("E18: full-clone provisioning vs management shards",
		"shards", "shared good/h", "shared p99 s", "shared db util",
		"per-shard good/h", "per-shard p99 s", "per-shard db util")
	for _, pt := range r.Points {
		ft.AddRow(pt.Shards,
			pt.SharedFull.GoodPerHour, pt.SharedFull.P99S, pt.SharedFull.DBUtil,
			pt.PerShardFull.GoodPerHour, pt.PerShardFull.P99S, pt.PerShardFull.DBUtil)
	}
	if err := ft.Render(w); err != nil {
		return err
	}
	ct := report.NewTable("E18: cross-shard coordination under a migration storm (shared DB)",
		"shards", "migrations", "cross-shard", "share %", "coordinator s")
	for _, pt := range r.Points {
		ct.AddRow(pt.Shards, pt.Migrations, pt.CrossOps, pt.CrossShare, pt.CoordS)
	}
	return ct.Render(w)
}
