// Package plane is the management-plane topology layer: it stands N
// virtualization-manager shards behind the one endpoint the cloud
// director, DRS and the reconcilers submit through, owns the
// deterministic host→shard partition, and routes every operation to the
// shard owning its target host. Each shard brings its own admission
// queue, worker-thread pool, and inventory-lock table — the
// serialization points the paper shows saturating — while the
// management database is either one shared instance every shard
// contends on (the scale-out bottleneck the paper predicts) or a
// private per-shard instance. The plane builds everything the shards run
// on — the databases and the one host-agent registry — and hands each
// manager its share.
//
// Operations whose source and destination hosts live on different
// shards (migrations) run under a two-phase coordinator: a prepare
// round-trip against both shards' databases before the operation and a
// commit round-trip after it, so cross-shard work costs extra DB
// traffic and queueing without changing the per-task trace schema.
//
// Shards==1 is the identity topology: through the same builder path the
// plane builds the one manager core.New always built — same rng stream
// label, unprefixed resource names, same event sequence — and routes
// calls straight through, so single-shard artifacts are byte-identical
// to the pre-plane code.
package plane

import (
	"fmt"

	"cloudmcp/internal/hostsim"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/storage"
)

// DBMode selects how shards reach the management database.
type DBMode string

const (
	// DBShared gives every shard the same database instance: shard
	// counts scale admission and threads but DB capacity stays fixed,
	// so the DB becomes the cross-shard bottleneck.
	DBShared DBMode = "shared"
	// DBPerShard gives each shard a private database of full configured
	// capacity, pushing the saturation knee to higher shard counts.
	DBPerShard DBMode = "per-shard"
)

// Config describes the management-plane topology.
type Config struct {
	// Shards is the number of management-server shards (>= 1).
	Shards int `json:"shards,omitempty"`
	// DB selects shared vs per-shard database mode. With one shard both
	// modes build the same single database.
	DB DBMode `json:"db,omitempty"`
	// CoordWriteS is the aggregate-model DB service time, in seconds,
	// of one two-phase-coordinator round-trip (prepare or commit) per
	// participant shard. Under the WAL model each round-trip is one row
	// commit and CoordWriteS is ignored.
	CoordWriteS float64 `json:"coordWriteS,omitempty"`
}

// DefaultConfig returns the identity topology: one shard, shared DB
// mode, and a 50 ms coordinator round-trip should the shard count be
// raised.
func DefaultConfig() Config {
	return Config{Shards: 1, DB: DBShared, CoordWriteS: 0.05}
}

// Validate checks the topology for usable values.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("plane: shards must be >= 1, got %d", c.Shards)
	}
	if c.DB != DBShared && c.DB != DBPerShard {
		return fmt.Errorf("plane: unknown db mode %q (want %q or %q)", c.DB, DBShared, DBPerShard)
	}
	if c.CoordWriteS < 0 {
		return fmt.Errorf("plane: negative coordinator write time %g", c.CoordWriteS)
	}
	return nil
}

// Stats is the plane's cross-shard accounting.
type Stats struct {
	Shards   int
	DB       DBMode
	CrossOps int64   // operations that crossed a shard boundary
	CoordS   float64 // seconds of two-phase prepare+commit round-trips
}

// Plane is a sharded management plane.
type Plane struct {
	env    *sim.Env
	cfg    Config
	shards []*mgmt.Manager
	dbs    []*mgmt.DB           // distinct databases in shard order
	owner  map[inventory.ID]int // host → owning shard

	crossOps int64
	coordS   float64
}

// New builds the topology described by cfg over the shared inventory,
// storage pool, and cost model. It builds what the shards run on — the
// management databases (one shared, or one per shard) and the host-agent
// registry, which exists once however the plane is sharded — and then
// each shard's manager over them. seed
// derives each shard's stage-time stream; mcfg is the per-shard manager
// configuration.
//
// Every shard count takes the same path. With Shards == 1 it is
// construction-for-construction what core.New historically did: one
// manager on stream rng.Derive(seed, "mgmt") with unprefixed resource
// names, and no host partition.
func New(env *sim.Env, inv *inventory.Inventory, pool *storage.Pool, model *ops.CostModel, seed int64, mcfg mgmt.Config, cfg Config) (*Plane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	pl := &Plane{env: env, cfg: cfg, owner: make(map[inventory.ID]int)}
	agents := hostsim.NewRegistry(env, inv, mcfg.HostSlots)
	var db *mgmt.DB
	for i := 0; i < cfg.Shards; i++ {
		label, stream := "", "mgmt"
		if cfg.Shards > 1 {
			label, stream = fmt.Sprintf("shard%d.", i), fmt.Sprintf("mgmt.shard%d", i)
		}
		if db == nil || cfg.DB == DBPerShard {
			dbLabel := label
			if cfg.DB == DBShared {
				dbLabel = ""
			}
			var err error
			if db, err = mgmt.NewDB(env, dbLabel, mcfg); err != nil {
				return nil, err
			}
			pl.dbs = append(pl.dbs, db)
		}
		mgr, err := mgmt.New(env, inv, pool, agents, db, model, rng.Derive(seed, stream), label, mcfg)
		if err != nil {
			return nil, err
		}
		pl.shards = append(pl.shards, mgr)
	}
	if cfg.Shards == 1 {
		return pl, nil
	}

	// Deterministic contiguous-block partition over the inventory's host
	// order: host i of H goes to shard i*S/H, so consecutive hosts — and
	// with it the director's cell-affine placement — stay on one shard.
	hosts := inv.Hosts()
	for i, id := range hosts {
		shard := i * cfg.Shards / len(hosts)
		pl.owner[id] = shard
		// Mirror the partition into the inventory's placement groups so
		// the director's shard-affine host placement is an indexed peek
		// instead of a scan over every host.
		inv.SetHostGroup(id, shard)
	}
	return pl, nil
}

// ShardCount returns the number of shards.
func (pl *Plane) ShardCount() int { return len(pl.shards) }

// ShardOf returns the shard owning the given host. Hosts outside the
// partition (and inventory.None) belong to the home shard 0.
func (pl *Plane) ShardOf(host inventory.ID) int {
	if s, ok := pl.owner[host]; ok {
		return s
	}
	return 0
}

// Shards returns every shard's manager in shard order.
func (pl *Plane) Shards() []*mgmt.Manager { return pl.shards }

// DBs returns the distinct management databases in shard order: one
// when the shards share it, one per shard otherwise.
func (pl *Plane) DBs() []*mgmt.DB { return pl.dbs }

// Home returns the home shard (shard 0), which owns unpartitioned work:
// template-library copies and host-less Execute specs.
func (pl *Plane) Home() *mgmt.Manager { return pl.shards[0] }

// Stats returns the cross-shard coordination counters.
func (pl *Plane) Stats() Stats {
	return Stats{Shards: len(pl.shards), DB: pl.cfg.DB, CrossOps: pl.crossOps, CoordS: pl.coordS}
}

// route returns the manager of the shard owning host id.
func (pl *Plane) route(id inventory.ID) *mgmt.Manager { return pl.shards[pl.ShardOf(id)] }

// coordinate charges one two-phase round-trip (prepare or commit)
// against both participant shards' databases in shard order, returning
// the breakdown of the round-trips. Under shared-DB mode the two
// acquisitions contend on the same instance — exactly the coordination
// cost the paper attributes to a shared management database.
func (pl *Plane) coordinate(p *sim.Proc, a, b int) ops.Breakdown {
	var bd ops.Breakdown
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, s := range []int{lo, hi} {
		wait, service := pl.shards[s].DB().RoundTrip(p, pl.cfg.CoordWriteS)
		bd.Queue += wait
		bd.DB += service
	}
	pl.coordS += bd.Queue + bd.DB
	return bd
}

// Migrate routes a live migration. When the source and destination
// hosts live on different shards the operation runs under the two-phase
// coordinator: a prepare round-trip on both shards' databases charged
// into the task's upstream breakdown, execution on the source shard
// (which owns the VM), and a commit round-trip afterwards on the
// caller's clock.
func (pl *Plane) Migrate(p *sim.Proc, vm *inventory.VM, dst *inventory.Host, ctx mgmt.ReqCtx) *mgmt.Task {
	src, dstS := pl.ShardOf(vm.HostID), pl.ShardOf(dst.ID)
	if src == dstS {
		return pl.shards[src].Migrate(p, vm, dst, ctx)
	}
	pl.crossOps++
	prep := pl.coordinate(p, src, dstS)
	ctx.Pre = ctx.Pre.Add(prep)
	if ctx.Submit == 0 {
		// Stamp the pre-prepare submit time so the coordinator's
		// round-trips count toward the task's latency like any other
		// upstream queueing.
		ctx.Submit = p.Now() - sim.Time(prep.Queue+prep.DB)
	}
	task := pl.shards[src].Migrate(p, vm, dst, ctx)
	pl.coordinate(p, src, dstS)
	return task
}

// Routing for the single-shard operations: each goes to the shard that
// owns the operation's host.

func (pl *Plane) DeployVM(p *sim.Proc, name string, tpl *inventory.Template, host *inventory.Host, ds *inventory.Datastore, mode ops.CloneMode, ctx mgmt.ReqCtx) (*inventory.VM, *mgmt.Task) {
	return pl.route(host.ID).DeployVM(p, name, tpl, host, ds, mode, ctx)
}

func (pl *Plane) PowerOn(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).PowerOn(p, vm, ctx)
}

func (pl *Plane) PowerOff(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).PowerOff(p, vm, ctx)
}

func (pl *Plane) SnapshotCreate(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).SnapshotCreate(p, vm, ctx)
}

func (pl *Plane) SnapshotRemove(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).SnapshotRemove(p, vm, ctx)
}

func (pl *Plane) Reconfigure(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).Reconfigure(p, vm, ctx)
}

func (pl *Plane) StorageMigrate(p *sim.Proc, vm *inventory.VM, dst *inventory.Datastore, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).StorageMigrate(p, vm, dst, ctx)
}

func (pl *Plane) Destroy(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).Destroy(p, vm, ctx)
}

func (pl *Plane) Suspend(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).Suspend(p, vm, ctx)
}

func (pl *Plane) Resume(p *sim.Proc, vm *inventory.VM, ctx mgmt.ReqCtx) *mgmt.Task {
	return pl.route(vm.HostID).Resume(p, vm, ctx)
}

// FullCopyTemplate runs on the home shard: the template library is
// unpartitioned catalog state.
func (pl *Plane) FullCopyTemplate(p *sim.Proc, tpl *inventory.Template, dst *inventory.Datastore, name string) (*inventory.Template, error) {
	return pl.Home().FullCopyTemplate(p, tpl, dst, name)
}

// Execute routes a pre-built spec by its host-agent target; host-less
// specs run on the home shard.
func (pl *Plane) Execute(p *sim.Proc, spec mgmt.ExecSpec) *mgmt.Task {
	return pl.route(spec.HostID).Execute(p, spec)
}

// Inventory returns the shared managed-object inventory.
func (pl *Plane) Inventory() *inventory.Inventory { return pl.Home().Inventory() }

// Storage returns the shared datastore pool.
func (pl *Plane) Storage() *storage.Pool { return pl.Home().Storage() }

// AddTaskSink registers fn with every shard, so the trace sees all
// tasks regardless of where they ran.
func (pl *Plane) AddTaskSink(fn func(*mgmt.Task)) {
	for _, m := range pl.shards {
		m.AddTaskSink(fn)
	}
}

// TasksCompleted sums completed tasks across shards.
func (pl *Plane) TasksCompleted() int64 {
	var n int64
	for _, m := range pl.shards {
		n += m.TasksCompleted()
	}
	return n
}

// TaskErrors sums task errors across shards.
func (pl *Plane) TaskErrors() int64 {
	var n int64
	for _, m := range pl.shards {
		n += m.TaskErrors()
	}
	return n
}

// RetryStats sums the retry/fault counters across shards.
func (pl *Plane) RetryStats() mgmt.RetryStats {
	var rs mgmt.RetryStats
	for _, m := range pl.shards {
		s := m.RetryStats()
		rs.Attempts += s.Attempts
		rs.Faults += s.Faults
		rs.Retries += s.Retries
		rs.GiveUps += s.GiveUps
		rs.Deadline += s.Deadline
	}
	return rs
}

// Goodput merges per-kind goodput rows across shards in canonical kind
// order. With one shard the rows are returned untouched.
func (pl *Plane) Goodput() []mgmt.GoodputRow {
	if len(pl.shards) == 1 {
		return pl.shards[0].Goodput()
	}
	byKind := make(map[ops.Kind]*mgmt.GoodputRow)
	for _, m := range pl.shards {
		for _, r := range m.Goodput() {
			acc, ok := byKind[r.Kind]
			if !ok {
				cp := r
				byKind[r.Kind] = &cp
				continue
			}
			acc.Tasks += r.Tasks
			acc.OK += r.OK
			acc.Attempts += r.Attempts
			acc.GiveUps += r.GiveUps
		}
	}
	var out []mgmt.GoodputRow
	for _, k := range ops.Kinds() {
		if r, ok := byKind[k]; ok {
			out = append(out, *r)
		}
	}
	return out
}
