package core

// Extension experiment E19: inventory scale ladder. The paper's
// management-plane measurements top out at thousands of VMs per
// management server; E19 asks what the control plane looks like when the
// *inventory itself* is the large dimension. Each cell prepopulates the
// cloud with N registered VMs (10^3 up to 10^6), then runs the standard
// closed-loop deploy→destroy workload against it. With the indexed
// placement path, admission and placement stay O(log n) in inventory
// size, so deploy throughput and p99 should be flat across the ladder —
// any knee is a real management-plane cost (database rows, host-agent
// fan-out), not a placement-scan artifact. Two database modes bound the
// commit cost: the default aggregate connection pool and a WAL database
// with row-level group commit (mgmtdb.Config.GroupRows), the batching
// lever for commit storms at million-entity scale.
//
// Like E17/E18/E20, E19 is opt-in — reachable via RunExperiment
// (mcpbench -only E19) — and never part of the default E1..E16 suite,
// so existing artifacts stay byte-identical. The artifact carries only
// deterministic simulation outputs; the wall-clock placement cost is
// measured separately by the repo benchmark's inventory.place_ns_1e5
// seam (bench/).

import (
	"fmt"
	"io"
	"math"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// E19Params configures the scale ladder.
type E19Params struct {
	Seed     int64
	HorizonS float64 // per point, the first 10% warmup (registry: 30 min)
	Workers  int     // sweep pool bound (0 = GOMAXPROCS)
}

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

// PrepopulateVMs registers n powered-off VMs directly in the inventory —
// round-robin across hosts and datastores, 2 vCPUs / 2 GB / 1 GB disk
// each — modeling a long-lived installation whose inventory dwarfs its
// operation rate. It bypasses the management plane (no tasks, no DB
// writes, no simulated time) so the closed-loop measurement starts from
// a populated inventory rather than spending the horizon building one.
// Call before Run. Deterministic: depends only on n and the topology.
func (c *Cloud) PrepopulateVMs(n int) error {
	inv := c.inv
	hosts := inv.Hosts()
	dss := inv.Datastores()
	for i := 0; i < n; i++ {
		host := inv.Host(hosts[i%len(hosts)])
		ds := inv.Datastore(dss[i%len(dss)])
		vm, err := inv.AddVM(fmt.Sprintf("prevm%07d", i), host, ds, 2, 2048, 1.0)
		if err != nil {
			return fmt.Errorf("core: prepopulate VM %d/%d: %w", i, n, err)
		}
		vm.State = inventory.VMPoweredOff
	}
	return nil
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
// database modes.
func RunE19(p E19Params) (*E19Result, error) { return e19.run(p) }

func (d e19Ladder) run(p E19Params) (*E19Result, error) {
	g := d.grid(p.HorizonS)
	cells, err := RunGrid(g, DefaultLoader(p.Seed), sweep.Options{MasterSeed: p.Seed, Workers: p.Workers},
		func(pt GridRow) (E19Cell, error) {
			c, err := New(pt.Config)
			if err != nil {
				return E19Cell{}, err
			}
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
