package core

// The opt-in extension experiments E17..E21 (see EXPERIMENTS.md):
// goodput under faults, management-plane scale-out, the inventory scale
// ladder, reconciliation interference and the policy tournament.
// mcpbench -only runs them from the Extensions table; none is part of
// the default E1..E16 suite, so its artifacts stay byte-identical.

import (
	"fmt"
	"io"
	"math"

	"cloudmcp/internal/ha"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/sweep"
)

// ---------------------------------------------------------------------
// E17 — control-plane goodput under injected faults. The predecessor
// work (and the reliability literature around it) argues that failures
// and retries are first-class management load; E17 measures it
// directly. A closed-loop deploy workload runs against clouds with
// increasing transient-fault rates (package faults) and the manager's
// retry policy turns every injected failure into repeated
// admission/thread/DB/lock work — so goodput (successful deploys/hour)
// falls faster than the fault rate alone explains, and tail latency
// grows with retry backoff. A second leg re-runs the E16 restart storm
// against an already-faulty control plane: recovery time stretches
// exactly when failures are already rampant.

// e17StormRatePerHour is the storm leg's background load.
const e17StormRatePerHour = 2000.0

// e17Storm is the storm leg: the E16 grid at e17StormRatePerHour, run at
// each fault rate with a faults.rate base.
var e17Storm = e16Storm{rates: []float64{e17StormRatePerHour}, hostVMs: e16.hostVMs}

// e17Loop is E17's closed-loop leg as data: fault rate × provisioning
// mode (full, then linked clones) with rebalancing off to isolate
// provisioning. Every point enables fault injection, and with it the
// default retry policy.
type e17Loop struct {
	rates   []float64
	clients int
}

// e17 is the registry's grid: four fault rates at the E6 crossover's 32
// clients.
var e17 = e17Loop{rates: []float64{0, 0.05, 0.1, 0.2}, clients: 32}

func (d e17Loop) grid(horizonS float64) Grid {
	return Grid{
		Base:    []string{"director.rebalanceThreshold=0"},
		Dims:    []Dim{Vary("faults.rate", d.rates...), Vary("director.fastProvisioning", false, true)},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// E17Mode is one provisioning mode's outcome at one fault rate.
type E17Mode struct {
	GoodPerHour   float64 // successful deploys/hour in the window
	P99S          float64 // deploy p99 latency in the window
	Amplification float64 // attempts per task, whole run
	GiveUps       int64   // tasks abandoned by the retry policy, whole run
}

// E17Point is one fault rate's closed-loop outcome, full vs linked.
type E17Point struct {
	Rate         float64
	Full, Linked E17Mode

	// goodput holds the linked-clone per-kind rows; rendered for the
	// highest swept rate.
	goodput []mgmt.GoodputRow

	// Storm is the E16 restart-storm leg at this fault rate.
	Storm E16Point
}

// E17Result holds the sweep.
type E17Result struct{ Points []E17Point }

// RunE17 runs the fault-rate grid in both provisioning modes, then one
// restart storm per fault rate. HorizonS is per closed-loop point and
// storm.
func RunE17(p Params) (*E17Result, error) { return e17.run(p) }

func (d e17Loop) run(p Params) (*E17Result, error) {
	load, opts := p.sweep()
	rows, err := d.grid(p.HorizonS).Run(load, opts)
	if err != nil {
		return nil, err
	}
	mode := func(r ClosedLoopResult) E17Mode {
		m := E17Mode{GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS, GiveUps: r.Retry.GiveUps}
		var tasks, attempts int64
		for _, row := range r.Goodput {
			tasks += row.Tasks
			attempts += row.Attempts
		}
		if tasks > 0 {
			m.Amplification = float64(attempts) / float64(tasks)
		}
		return m
	}
	points, err := sweep.Run(opts, len(d.rates), func(sp sweep.Point) (E17Point, error) {
		rate := d.rates[sp.Index]
		storm, err := e17Storm.run(Params{Seed: p.Seed, HorizonS: p.HorizonS, Workers: 1}, fmt.Sprintf("faults.rate=%v", rate))
		if err != nil {
			return E17Point{}, err
		}
		full, linked := rows[2*sp.Index].Result, rows[2*sp.Index+1].Result
		return E17Point{Rate: rate, Full: mode(full), Linked: mode(linked), goodput: linked.Goodput, Storm: storm[0]}, nil
	})
	if err != nil {
		return nil, err
	}
	return &E17Result{Points: points}, nil
}

// Render writes the goodput table, the per-kind goodput breakdown at the
// highest fault rate, and the storm table.
func (r *E17Result) Render(w io.Writer) error {
	t := report.NewTable("E17: closed-loop deploy goodput vs injected fault rate",
		"fault rate", "full good/h", "full p99 s", "full amp", "linked good/h", "linked p99 s", "linked amp", "giveups")
	for _, pt := range r.Points {
		t.AddRow(pt.Rate, pt.Full.GoodPerHour, pt.Full.P99S, pt.Full.Amplification,
			pt.Linked.GoodPerHour, pt.Linked.P99S, pt.Linked.Amplification,
			pt.Full.GiveUps+pt.Linked.GiveUps)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if n := len(r.Points); n > 0 {
		last := r.Points[n-1]
		if gt := report.GoodputTable(last.goodput); gt != nil {
			gt.Title = fmt.Sprintf("E17: linked-clone goodput by operation at fault rate %.2f", last.Rate)
			if err := gt.Render(w); err != nil {
				return err
			}
		}
	}
	st := report.NewTable(
		fmt.Sprintf("E17: HA restart storm on a faulty control plane (%.0f req/h)", e17StormRatePerHour),
		"fault rate", "recovery s", "restarted", "unplaced", "bg deploys done")
	for _, pt := range r.Points {
		st.AddRow(pt.Rate, pt.Storm.RecoveryS, pt.Storm.Restarted, pt.Storm.Unplaced, pt.Storm.DeploysDone)
	}
	return st.Render(w)
}

// ---------------------------------------------------------------------
// E18 — management-plane scale-out. The paper's headline finding is
// that self-service provisioning rates outgrow a single management
// server; E18 asks the follow-up question a capacity planner needs
// answered: what happens when you shard the management plane? A
// closed-loop deploy workload runs against clouds with 1, 2, 4, and 8
// manager shards (package plane) in both database modes. With a shared
// management DB, admission and worker threads scale with the shard
// count but every shard contends on the same connection pool, so
// throughput rises until the DB saturates and then flattens — the
// bottleneck the paper predicts moves to the database. With per-shard
// DBs the knee shifts to higher shard counts and utilization stays
// spread. A second leg runs a live-migration storm at each shard count
// to measure how much work crosses shard boundaries and what the
// two-phase coordinator charges for it.

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
// cross-shard coordination. HorizonS is per closed-loop point and storm.
func RunE18(p Params) (*E18Result, error) { return e18.run(p) }

func (d e18Loop) run(p Params) (*E18Result, error) {
	load, opts := p.sweep()
	rows, err := d.grid(p.HorizonS).Run(load, opts)
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
	defer c.Close()
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	hosts := inv.Hosts()
	const workers = 64
	var issued int64
	for i := 0; i < workers; i++ {
		org := fmt.Sprintf("org%d", i%8)
		stream := rng.Derive(seed, fmt.Sprintf("e18.migrate.%d", i))
		c.Go("storm", func(p *sim.Proc) {
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

// ---------------------------------------------------------------------
// E19 — inventory scale ladder. The paper's management-plane
// measurements top out at thousands of VMs per management server; E19
// asks what the control plane looks like when the *inventory itself* is
// the large dimension. Each cell prepopulates the cloud with N
// registered VMs (10^3 up to 10^5), then runs the standard closed-loop
// deploy→destroy workload against it. With the indexed placement path,
// admission and placement stay O(log n) in inventory size, so deploy
// throughput and p99 should be flat across the ladder — any knee is a
// real management-plane cost (database rows, host-agent fan-out), not a
// placement-scan artifact. Two database modes bound the commit cost:
// the default aggregate connection pool and a WAL database with
// row-level group commit (mgmtdb.Config.GroupRows), the batching lever
// for commit storms at million-entity scale.
//
// The artifact carries only deterministic simulation outputs; the
// wall-clock placement cost is measured separately by the repo
// benchmark's inventory.place_ns_1e5 seam (bench/).

// E19Cell is one (size, shards, DB mode) closed-loop outcome.
type E19Cell struct {
	GoodPerHour float64 // successful deploys/hour in the window
	P99S        float64 // deploy p99 latency in the window
	DBUtil      float64 // management DB utilization
}

// E19Point is one (size, shard count) rung: both DB modes' outcomes.
type E19Point struct {
	Size   int // prepopulated VMs
	Shards int

	Pool    E19Cell // default aggregate connection-pool database
	Grouped E19Cell // WAL database with row-level group commit
}

// E19Result holds the ladder.
type E19Result struct{ Points []E19Point }

// e19Topology scales the default topology to hold size prepopulated VMs
// at half memory occupancy (128 of 256 VM-slots per host) and a quarter
// disk occupancy, leaving ample headroom for the closed-loop workload.
// Datastore bandwidth and the linked-clone chain cap are de-bottlenecked
// the same way E18 does, so the management plane — not the data plane —
// is what the ladder measures.
func e19Topology(size int) Topology {
	t := DefaultTopology()
	if h := (size + 127) / 128; h > t.Hosts {
		t.Hosts = h
	}
	if d := (size + 4999) / 5000; d > t.Datastores {
		t.Datastores = d
	}
	t.DatastoreMBps = 4000
	return t
}

// e19Ladder is E19's grid: prepopulated inventory size (each level
// sets e19Topology's hosts, datastores and bandwidth) × plane shards ×
// DB mode (the default pool, then row-level group commit), under
// closed-loop linked-clone load with rebalancing off and the chain cap
// lifted as in E18.
type e19Ladder struct {
	sizes   []int
	shards  []int
	clients int
}

var e19 = e19Ladder{sizes: []int{1000, 10000, 100000}, shards: []int{1, 4}, clients: 64}

// e19Quick is the ladder quick (CI) runs climb: the two smallest rungs.
var e19Quick = e19Ladder{sizes: e19.sizes[:2], shards: e19.shards, clients: e19.clients}

func (d e19Ladder) grid(horizonS float64) Grid {
	size := Dim{Name: "size"}
	for _, n := range d.sizes {
		t := e19Topology(n)
		size.Levels = append(size.Levels, Level{Label: fmt.Sprint(n), Sets: []string{
			fmt.Sprintf("topology.hosts=%d", t.Hosts), fmt.Sprintf("topology.datastores=%d", t.Datastores),
			fmt.Sprintf("topology.datastoreMBps=%v", t.DatastoreMBps)}})
	}
	db := Dim{Name: "mgmt.database", Levels: []Level{
		{Label: "pool"},
		{Label: "grouped", Sets: []string{`mgmt.database={"groupRows":true}`}},
	}}
	return Grid{
		Base:    []string{"director.fastProvisioning=true", "director.rebalanceThreshold=0", "director.maxChainLen=1048576"},
		Dims:    []Dim{size, Vary("plane.shards", d.shards...), db},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE19 climbs the inventory ladder: each (size, shards) rung
// prepopulates a scaled cloud and runs the closed loop under both
// database modes. HorizonS is per point, the first 10% warmup.
func RunE19(p Params) (*E19Result, error) { return e19.run(p) }

func (d e19Ladder) run(p Params) (*E19Result, error) {
	g := d.grid(p.HorizonS)
	load, opts := p.sweep()
	cells, err := RunGrid(g, load, opts,
		func(pt GridRow) (E19Cell, error) {
			c, err := New(pt.Config)
			if err != nil {
				return E19Cell{}, err
			}
			defer c.Close()
			if err := c.PrepopulateVMs(d.sizes[pt.Levels[0]]); err != nil {
				return E19Cell{}, err
			}
			res := runClosedLoopOn(c, pt.Clients, g.HorizonS, g.WarmupS, thinkTime(pt.Config.Seed, "e6"))
			return E19Cell{GoodPerHour: res.DeploysPerHour, P99S: res.P99LatencyS, DBUtil: res.DBUtil}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &E19Result{}
	for i, size := range d.sizes {
		for j, shards := range d.shards {
			k := 2 * (i*len(d.shards) + j)
			res.Points = append(res.Points, E19Point{Size: size, Shards: shards, Pool: cells[k], Grouped: cells[k+1]})
		}
	}
	return res, nil
}

// Render writes the ladder table plus the headline flatness ratio: how
// much deploy throughput degrades from the smallest to the largest rung
// at each shard count (1.0 = perfectly flat).
func (r *E19Result) Render(w io.Writer) error {
	t := report.NewTable("E19: closed-loop provisioning vs inventory size",
		"VMs", "shards", "pool good/h", "pool p99 s", "pool db util",
		"grouped good/h", "grouped p99 s", "grouped db util")
	for _, pt := range r.Points {
		t.AddRow(pt.Size, pt.Shards,
			pt.Pool.GoodPerHour, pt.Pool.P99S, pt.Pool.DBUtil,
			pt.Grouped.GoodPerHour, pt.Grouped.P99S, pt.Grouped.DBUtil)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	// Flatness: largest-rung throughput over smallest-rung throughput,
	// per shard count.
	first := make(map[int]E19Point)
	last := make(map[int]E19Point)
	var shardOrder []int
	for _, pt := range r.Points {
		if _, ok := first[pt.Shards]; !ok {
			first[pt.Shards] = pt
			shardOrder = append(shardOrder, pt.Shards)
		}
		last[pt.Shards] = pt
	}
	ft := report.NewTable("E19: throughput retention across the ladder",
		"shards", "from VMs", "to VMs", "pool retention", "grouped retention")
	for _, s := range shardOrder {
		f, l := first[s], last[s]
		ratio := func(a, b float64) float64 {
			if a == 0 {
				return math.NaN()
			}
			return b / a
		}
		ft.AddRow(s, f.Size, l.Size,
			ratio(f.Pool.GoodPerHour, l.Pool.GoodPerHour),
			ratio(f.Grouped.GoodPerHour, l.Grouped.GoodPerHour))
	}
	return ft.Render(w)
}

// ---------------------------------------------------------------------
// E20 — the reconciliation plane as a competing workload. Modern
// control planes run closed-loop controllers that continuously re-list
// managed objects and correct drift; that background work goes through
// the same admission slots, worker threads, lock tables, and
// management-DB connections as user provisioning. E20 measures the
// interference three ways. The main grid runs a closed-loop deploy
// workload against clouds with the drift and catalog controllers
// enabled, sweeping reconcile interval × queue depth × shard count
// (plus a reconcile-off baseline per shard count): foreground goodput
// and p99 degrade as the resync interval shrinks and the queue depth
// grows, and sharding buys headroom back — except for the catalog
// fan-out, which is host-less and pins the home shard. A second leg
// triggers a drift storm: a host failure restarts a fleet through HA,
// every restarted VM's observed config diverges at once, and the storm
// of corrections collides with foreground provisioning. A third leg
// overfills datastores and lets the "thundering rebalance" controller
// drain them through storage migrations.

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
	Heaviest []reconcile.Stats
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
// HorizonS is per leg.
func RunE20(p Params) (*E20Result, error) { return e20.run(p) }

func (d e20Loop) run(p Params) (*E20Result, error) {
	rows, err := d.grid(p.HorizonS).Run(p.sweep())
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
	res.Heaviest = rows[len(rows)-1].Result.Reconcile
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
func e20DriftStorm(p Params) (E20Storm, error) {
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
	defer c.Close()
	eng, err := ha.New(c.Env(), c.Plane(), c.Policy().Failover, ha.DefaultConfig())
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
func e20Rebalance(p Params) (E20Rebalance, error) {
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
	defer c.Close()
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
		c.Go("fill", func(fp *sim.Proc) {
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

// ---------------------------------------------------------------------
// E21 — the policy tournament. Every decision point the management
// plane makes — placement scoring, DRS move selection, HA failover
// targeting, retry shaping, admission limits — is pluggable (package
// policy), and E21 races named policy sets on the sweep engine: a
// closed-loop provisioning grid over scenario × fault-rate for each
// policy, plus a failover-storm leg per policy, scored on goodput, p99,
// and induced migration churn. The ranking normalizes goodput within
// each scenario × fault-rate group (so no single regime dominates by
// scale) and is byte-identical across worker counts, like every other
// artifact.

// e21StormVMs is the failover leg's fleet size.
const e21StormVMs = 48

// E21Cell is one grid point's outcome.
type E21Cell struct {
	Policy    string
	Scenario  string
	FaultRate float64

	GoodPerHour float64 // successful foreground deploys/hour
	P99S        float64 // foreground deploy p99 latency
	Moves       int64   // DRS + rebalancer migrations issued
	Errors      int     // failed deploys in the window
	GiveUps     int64   // tasks abandoned by the retry policy
}

// E21Failover is one policy's failover-storm leg: a fleet host fails
// mid-run and the set's failover policy replaces the dead capacity
// while foreground provisioning continues.
type E21Failover struct {
	Policy    string
	Affected  int // VMs on the failed host
	Restarted int // VMs HA brought back elsewhere
	Unplaced  int // restarts no surviving host could take

	PostGoodPerHour float64 // foreground deploys/hour after the failure
	PostP99S        float64
}

// E21Result holds the grid, the failover legs, and the final ranking.
type E21Result struct {
	Cells     []E21Cell
	Failovers []E21Failover
	Ranking   []report.PolicyRow
}

// e21Loop is E21's closed-loop leg as data: policy × scenario × fault
// rate. Every point provisions linked clones on uncapped chains and runs
// DRS hot (10% threshold, 2-minute checks) so move policies differ.
// faultRates starts at 0, so each policy's first point, steady and
// fault-free, is also the cloud its failover leg runs on.
type e21Loop struct {
	policies   []string
	faultRates []float64
	clients    int
}

// e21 is the registry's grid.
var e21 = e21Loop{
	policies:   []string{"default", "binpack", "spread", "band", "adaptive-retry"},
	faultRates: []float64{0, 0.15},
	clients:    32,
}

// e21Scenarios is the scenario dimension. "steady" de-bottlenecks the
// data plane — the decision policies, not the spindles, are the
// constraint — and disables the rebalancer; "skewed" keeps the default
// spindles and adds sticky-org placement, so tenants pile onto their
// pinned datastores, storage contention is real, and the rebalancer (on
// a 5-minute check) cleans up behind them.
var e21Scenarios = Dim{Name: "scenario", Levels: []Level{
	{Label: "steady", Sets: []string{"topology.datastoreMBps=4000", "director.rebalanceThreshold=0"}},
	{Label: "skewed", Sets: []string{"director.placement=sticky-org", "director.rebalanceCheckS=300"}},
}}

func (d e21Loop) grid(horizonS float64) Grid {
	rates := Dim{Name: "faults"}
	for _, rate := range d.faultRates {
		set := "faults=null"
		if rate > 0 {
			set = fmt.Sprintf(`faults={"rate":%g}`, rate)
		}
		rates.Levels = append(rates.Levels, Level{Label: fmt.Sprint(rate), Sets: []string{set}})
	}
	return Grid{
		Base:    []string{"director.fastProvisioning=true", "director.maxChainLen=1048576", `drs={"threshold":0.1,"checkS":120,"batch":8}`},
		Dims:    []Dim{Vary("policy", d.policies...), e21Scenarios, rates},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE21 races the policy sets over the scenario × fault-rate grid, runs
// one failover-storm leg per policy, and ranks policies by mean goodput
// normalized within each scenario × fault-rate group, so easy regimes
// cannot drown hard ones. HorizonS is per grid point and failover leg.
func RunE21(p Params) (*E21Result, error) { return e21.run(p) }

func (d e21Loop) run(p Params) (*E21Result, error) {
	g := d.grid(p.HorizonS)
	load, opts := p.sweep()
	rows, err := g.Run(load, opts)
	if err != nil {
		return nil, err
	}
	cells := make([]E21Cell, len(rows))
	for i, row := range rows {
		r := row.Result
		cells[i] = E21Cell{
			Policy: row.Labels[0], Scenario: row.Labels[1], FaultRate: d.faultRates[row.Levels[2]],
			GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS,
			Moves:  r.DRSMoves + r.RebalanceMoves,
			Errors: r.Errors, GiveUps: r.Retry.GiveUps,
		}
	}
	perPolicy := len(rows) / len(d.policies)
	failovers, err := sweep.Run(opts, len(d.policies), func(sp sweep.Point) (E21Failover, error) {
		row := rows[sp.Index*perPolicy]
		fo, err := e21FailoverStorm(row.Config, row.Labels[0], p.HorizonS)
		if err != nil {
			return fo, fmt.Errorf("E21 failover %s: %w", row.Labels[0], err)
		}
		return fo, nil
	})
	if err != nil {
		return nil, err
	}
	return &E21Result{Cells: cells, Failovers: failovers, Ranking: g.RankPolicies(rows)}, nil
}

// e21FailoverStorm deploys a powered-on fleet under one policy set,
// runs foreground deploy→destroy workers throughout, fails the
// busiest host at the half-way mark through an HA engine wired to the
// set's failover policy, and measures foreground service after the
// restart storm.
func e21FailoverStorm(cfg Config, pol string, horizonS float64) (E21Failover, error) {
	c, err := New(cfg)
	if err != nil {
		return E21Failover{}, err
	}
	defer c.Close()
	eng, err := ha.New(c.Env(), c.Plane(), c.Policy().Failover, ha.DefaultConfig())
	if err != nil {
		return E21Failover{}, err
	}
	H := horizonS
	fo := E21Failover{Policy: pol}
	// 16 foreground clients, measured after the failure.
	runFailoverStorm(c, eng, e21StormVMs, 16, "e21.storm", H, func(rec *ha.Failover) {
		fo.Affected = rec.Affected
		fo.Restarted = rec.Restarted
		fo.Unplaced = rec.Unplaced
	})
	perHour, lat, _ := deployWindow(c, H/2, H)
	fo.PostGoodPerHour = perHour
	fo.PostP99S = lat.Percentile(99)
	return fo, nil
}

// Render writes the tournament grid, the failover legs, and the
// ranking table.
func (r *E21Result) Render(w io.Writer) error {
	gt := report.NewTable("E21: policy tournament over scenario x fault rate",
		"policy", "scenario", "fault rate", "good/h", "p99 s", "moves", "errors", "giveups")
	for _, c := range r.Cells {
		gt.AddRow(c.Policy, c.Scenario, c.FaultRate, c.GoodPerHour, c.P99S, c.Moves, c.Errors, c.GiveUps)
	}
	if err := gt.Render(w); err != nil {
		return err
	}
	ft := report.NewTable("E21: failover storm per policy (steady scenario, busiest host fails at H/2)",
		"policy", "affected", "restarted", "unplaced", "post good/h", "post p99 s")
	for _, f := range r.Failovers {
		ft.AddRow(f.Policy, f.Affected, f.Restarted, f.Unplaced, f.PostGoodPerHour, f.PostP99S)
	}
	if err := ft.Render(w); err != nil {
		return err
	}
	if rt := report.PolicyTable("E21: ranking by mean normalized goodput", r.Ranking); rt != nil {
		return rt.Render(w)
	}
	return nil
}
