// Package core is the public façade of the cloudmcp library: it assembles
// the full simulated stack — inventory, datastores, host agents, the
// virtualization manager, and the cloud director — from one Config, runs
// workload profiles against it, and exposes the trace and statistics the
// characterization pipeline and the experiment harness consume.
//
// A minimal use looks like:
//
//	cloud, err := core.New(core.DefaultConfig(1))
//	gen, err := cloud.StartProfile(workload.CloudA())
//	cloud.Run(6 * 3600)
//	records := cloud.Records()
//
// Everything else in the repository — the examples, the four CLIs, and
// the per-figure benchmarks — is built on this package.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/storage"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// Topology describes the physical installation to build.
type Topology struct {
	Hosts      int `json:"hosts,omitempty"`
	HostCPUMHz int `json:"hostCPUMHz,omitempty"`
	HostMemMB  int `json:"hostMemMB,omitempty"`

	Datastores    int     `json:"datastores,omitempty"`
	DatastoreGB   float64 `json:"datastoreGB,omitempty"`
	DatastoreMBps float64 `json:"datastoreMBps,omitempty"`

	Templates      int     `json:"templates,omitempty"`
	TemplateDiskGB float64 `json:"templateDiskGB,omitempty"`
	TemplateMemMB  int     `json:"templateMemMB,omitempty"`
	TemplateCPUs   int     `json:"templateCPUs,omitempty"`
}

// DefaultTopology is a mid-size cloud: 32 hosts, 8 datastores, 6 catalog
// templates of 16 GB.
func DefaultTopology() Topology {
	return Topology{
		Hosts: 32, HostCPUMHz: 80000, HostMemMB: 524288,
		Datastores: 8, DatastoreGB: 20000, DatastoreMBps: 300,
		Templates: 6, TemplateDiskGB: 16, TemplateMemMB: 2048, TemplateCPUs: 2,
	}
}

// Validate checks the topology for usable values.
func (t Topology) Validate() error {
	if t.Hosts <= 0 || t.HostCPUMHz <= 0 || t.HostMemMB <= 0 {
		return fmt.Errorf("core: bad host topology %+v", t)
	}
	if t.Datastores <= 0 || t.DatastoreGB <= 0 || t.DatastoreMBps <= 0 {
		return fmt.Errorf("core: bad datastore topology %+v", t)
	}
	if t.Templates <= 0 || t.TemplateDiskGB <= 0 || t.TemplateMemMB <= 0 || t.TemplateCPUs <= 0 {
		return fmt.Errorf("core: bad template topology %+v", t)
	}
	return nil
}

// Config assembles a full simulated cloud.
type Config struct {
	// Seed drives every random stream in the simulation; the same Config
	// always produces the same results.
	Seed int64

	Topology Topology
	Mgmt     mgmt.Config
	Director clouddir.Config
	Storage  storage.Policy

	// Plane is the management-plane topology: how many manager shards
	// stand behind the director and whether they share one management
	// database. The zero value (and DefaultConfig) is the single-shard
	// identity topology.
	Plane plane.Config

	// DRS enables the compute load balancer (zero Threshold = off, the
	// default: the synthetic workloads self-balance via most-free
	// placement, so DRS is opt-in for scenarios that skew load).
	DRS drs.Config

	// Model prices operations; nil uses ops.DefaultCostModel().
	Model *ops.CostModel

	// Record controls whether a trace recorder is attached (on by
	// default in DefaultConfig; disable for long capacity sweeps).
	Record bool

	// Metrics attaches a per-layer instrumentation registry (see
	// internal/metrics). Off by default: the registry is pull-based, so
	// enabling it never changes simulation outcomes, but disabling it
	// keeps the hot path a single nil check.
	Metrics bool

	// Faults, when non-nil, injects deterministic transient failures and
	// latency stalls (see internal/faults); New builds a per-cloud
	// injector seeded from Seed and, unless Mgmt.Retry is already set,
	// applies mgmt.DefaultRetryPolicy(). Nil — or a config whose rates
	// are all zero — reproduces pre-faults behaviour bit-for-bit.
	Faults *faults.Config

	// Reconcile, when non-nil, runs the always-on reconciliation plane
	// (see internal/reconcile): background controllers that detect and
	// correct drift through the same management plane foreground work
	// uses. Nil — or a config naming no controllers — reproduces
	// pre-reconcile behaviour bit-for-bit.
	Reconcile *reconcile.Config

	// Policy names the policy set (see internal/policy) governing the
	// plane's decision points: placement scoring, DRS move selection,
	// HA failover targeting, retry shaping, and admission limits.
	// "" or "default" reproduce the historical hardcoded decisions
	// bit-for-bit. The set is the only source of the director's
	// placement, the balancer's move and the HA engine's failover
	// policy (Cloud.Policy); an explicit Mgmt.Retry replaces the set's
	// retry, and Mgmt.MaxInFlight is the base the set's admission
	// policy sizes from.
	Policy string
}

// DefaultConfig returns a fully-populated configuration for the given
// seed: default topology, manager, two-cell director with fast
// provisioning, and trace recording on.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		Topology: DefaultTopology(),
		Mgmt:     mgmt.DefaultConfig(),
		Director: clouddir.DefaultConfig(),
		Storage:  storage.DefaultPolicy(),
		Plane:    plane.DefaultConfig(),
		Record:   true,
	}
}

// Hour and Day are convenient horizons in seconds.
const (
	Hour = 3600.0
	Day  = 86400.0
)

// Cloud is one assembled simulated installation.
type Cloud struct {
	cfg Config
	pol policy.Set

	env      *sim.Env
	inv      *inventory.Inventory
	pool     *storage.Pool
	plane    *plane.Plane
	dir      *clouddir.Director
	balancer *drs.Balancer
	rec      *reconcile.Plane
	recorder *trace.Recorder
}

// Validate runs every check New runs, in New's order, and builds
// nothing: New fails with exactly the error Validate returns.
func (cfg Config) Validate() error {
	if err := cfg.Topology.Validate(); err != nil {
		return err
	}
	pol, err := policy.Named(cfg.Policy)
	if err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	pcfg := cfg.planeConfig()
	if pcfg.Shards > cfg.Topology.Hosts {
		return fmt.Errorf("core: %d shards exceed %d hosts: a shard needs at least one host", pcfg.Shards, cfg.Topology.Hosts)
	}
	if err := pcfg.Validate(); err != nil {
		return err
	}
	if err := cfg.mgmtConfig(pol).Validate(); err != nil {
		return err
	}
	if cfg.Model != nil {
		if err := cfg.Model.Validate(); err != nil {
			return err
		}
	}
	if err := cfg.Director.Validate(); err != nil {
		return err
	}
	if err := cfg.DRS.Validate(); err != nil {
		return err
	}
	if cfg.Reconcile != nil {
		return cfg.Reconcile.WithDefaults().Validate()
	}
	return nil
}

// planeConfig is the plane topology New builds: a zero Plane block
// (configs predating the sharded plane) is the single-shard identity
// topology.
func (cfg Config) planeConfig() plane.Config {
	if cfg.Plane == (plane.Config{}) {
		return plane.DefaultConfig()
	}
	return cfg.Plane
}

// mgmtConfig is the per-shard manager configuration New builds, less
// the fault injector: the policy set's retry when faults are on and the
// scenario sets none, and the in-flight limit the admission policy
// sizes from the configured base and the deployment shape (the default
// "fixed" policy returns the base).
func (cfg Config) mgmtConfig(pol policy.Set) mgmt.Config {
	mcfg := cfg.Mgmt
	if cfg.Faults != nil && mcfg.Retry == (mgmt.RetryPolicy{}) {
		mcfg.Retry = pol.Retry
	}
	mcfg.MaxInFlight = pol.Admission.MaxInFlight(mcfg.MaxInFlight, cfg.Topology.Hosts, cfg.planeConfig().Shards)
	return mcfg
}

// New builds the cloud described by cfg.
func New(cfg Config) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, _ := policy.Named(cfg.Policy) // Validate resolved the name
	model := cfg.Model
	if model == nil {
		model = ops.DefaultCostModel()
	}
	env := sim.NewEnv()
	if cfg.Metrics {
		// Must precede layer construction: each layer registers its
		// resources with the env's registry as it is built.
		env.SetMetrics(metrics.NewRegistry())
	}
	inv := inventory.New()
	dc := inv.AddDatacenter("dc0")
	cl := inv.AddCluster(dc, "cluster0")
	for i := 0; i < cfg.Topology.Hosts; i++ {
		inv.AddHost(cl, fmt.Sprintf("host%02d", i), cfg.Topology.HostCPUMHz, cfg.Topology.HostMemMB)
	}
	var dss []*inventory.Datastore
	for i := 0; i < cfg.Topology.Datastores; i++ {
		dss = append(dss, inv.AddDatastore(dc, fmt.Sprintf("ds%02d", i), cfg.Topology.DatastoreGB, cfg.Topology.DatastoreMBps))
	}
	for i := 0; i < cfg.Topology.Templates; i++ {
		// Spread template base disks across datastores.
		ds := dss[i%len(dss)]
		inv.AddTemplate(ds, fmt.Sprintf("tpl%02d", i), cfg.Topology.TemplateDiskGB, cfg.Topology.TemplateMemMB, cfg.Topology.TemplateCPUs)
	}
	pool := storage.NewPool(env, inv)
	pool.Policy = cfg.Storage
	mcfg := cfg.mgmtConfig(pol)
	if cfg.Faults != nil {
		inj, err := faults.New(cfg.Seed, *cfg.Faults)
		if err != nil {
			return nil, err
		}
		mcfg.Faults = inj
	}
	cfg.Plane = cfg.planeConfig()
	pl, err := plane.New(env, inv, pool, model, cfg.Seed, mcfg, cfg.Plane)
	if err != nil {
		return nil, err
	}
	dir, err := clouddir.New(env, pl, model, rng.Derive(cfg.Seed, "cells"), pol.Place, cfg.Director)
	if err != nil {
		return nil, err
	}
	balancer, err := drs.New(env, pl, pol.Move, cfg.DRS)
	if err != nil {
		return nil, err
	}
	c := &Cloud{cfg: cfg, pol: pol, env: env, inv: inv, pool: pool, plane: pl, dir: dir, balancer: balancer}
	if cfg.Record {
		c.recorder = trace.NewRecorder()
		pl.AddTaskSink(c.recorder.Sink)
	}
	if cfg.Reconcile != nil {
		rec, err := reconcile.New(env, pl, cfg.Seed, *cfg.Reconcile)
		if err != nil {
			return nil, err
		}
		c.rec = rec
	}
	dir.StartRebalancer()
	balancer.Start()
	if c.rec != nil {
		c.rec.Start()
	}
	return c, nil
}

// Policy returns the resolved policy set the cloud was assembled with,
// so harnesses can hand the same set's axes to engines core does not
// own (the HA engine's failover policy, for example).
func (c *Cloud) Policy() policy.Set { return c.pol }

// DRS returns the compute load balancer (idle unless configured).
func (c *Cloud) DRS() *drs.Balancer { return c.balancer }

// Reconcile returns the reconciliation plane, nil when Config.Reconcile
// is unset.
func (c *Cloud) Reconcile() *reconcile.Plane { return c.rec }

// ReconcileStats returns per-controller reconciliation activity, nil
// when the reconciliation plane is off. Call after Run.
func (c *Cloud) ReconcileStats() []reconcile.Stats {
	if c.rec == nil {
		return nil
	}
	return c.rec.Stats()
}

// Env returns the simulation environment.
func (c *Cloud) Env() *sim.Env { return c.env }

// Inventory returns the managed-object inventory.
func (c *Cloud) Inventory() *inventory.Inventory { return c.inv }

// Storage returns the datastore pool.
func (c *Cloud) Storage() *storage.Pool { return c.pool }

// Manager returns the home-shard virtualization manager. On the default
// single-shard plane this is the one manager; experiments needing
// shard-local access (the HA engine, restart storms) use it directly,
// while plane-wide accounting goes through Plane().
func (c *Cloud) Manager() *mgmt.Manager { return c.plane.Home() }

// Plane returns the management-plane topology: the shard set, the
// host→shard partition, and cross-shard coordination counters.
func (c *Cloud) Plane() *plane.Plane { return c.plane }

// Director returns the cloud director.
func (c *Cloud) Director() *clouddir.Director { return c.dir }

// Config returns the configuration the cloud was built with.
func (c *Cloud) Config() Config { return c.cfg }

// MetricsRegistry returns the per-layer metrics registry, or nil when
// Config.Metrics is off.
func (c *Cloud) MetricsRegistry() *metrics.Registry { return c.env.Metrics() }

// MetricsSnapshot captures the per-layer metrics at the current virtual
// time, or returns nil when Config.Metrics is off. Call after Run.
func (c *Cloud) MetricsSnapshot() *metrics.Snapshot {
	return c.env.Metrics().Snapshot(float64(c.env.Now()))
}

// ShardReport summarizes each management shard's load for the report
// renderer: hosts owned, tasks completed, thread utilization, admission
// queue, and database utilization (the shared instance's on every row
// in shared-DB mode). Call after Run.
func (c *Cloud) ShardReport() []report.ShardRow {
	hostsOf := make(map[int]int)
	for _, id := range c.inv.Hosts() {
		hostsOf[c.plane.ShardOf(id)]++
	}
	var rows []report.ShardRow
	for i, mgr := range c.plane.Shards() {
		rr := mgr.Resources()
		rows = append(rows, report.ShardRow{
			Shard:          fmt.Sprintf("shard%d", i),
			Hosts:          hostsOf[i],
			Tasks:          mgr.TasksCompleted(),
			ThreadsUtil:    rr.Threads.Utilization,
			AdmissionQueue: rr.Admission.MeanQueueLen,
			DBUtil:         mgr.DB().Stats().Utilization,
		})
	}
	return rows
}

// DBUtilization is the management database's mean utilization so far:
// the shared instance's utilization when shards contend on one DB (or
// on the single-shard plane), the mean across instances in per-shard
// mode. WAL-model databases report their flush-stage utilization.
func (c *Cloud) DBUtilization() float64 {
	dbs := c.plane.DBs()
	var sum float64
	for _, db := range dbs {
		sum += db.Stats().Utilization
	}
	return sum / float64(len(dbs))
}

// Records returns the operation trace collected so far (nil when
// recording is disabled).
func (c *Cloud) Records() []trace.Record {
	if c.recorder == nil {
		return nil
	}
	return c.recorder.Records()
}

// Run advances the simulation until the given virtual time.
func (c *Cloud) Run(until sim.Time) sim.Time { return c.env.Run(until) }

// Go spawns a process in the cloud's environment.
func (c *Cloud) Go(name string, fn func(p *sim.Proc)) { c.env.Go(name, fn) }

// Close ends the coroutines of the cloud's processes (sim.Env.Close).
// Call it once the cloud has run for the last time and every result has
// been read from it; a program that builds many clouds otherwise keeps
// every one's parked processes alive.
func (c *Cloud) Close() { c.env.Close() }

// StartProfile attaches a workload generator for the profile, creating
// work until horizon. Call Run to advance time.
func (c *Cloud) StartProfile(profile workload.Profile, horizon sim.Time) (*workload.Generator, error) {
	gen, err := workload.NewGenerator(c.env, c.dir, profile, rng.Derive(c.cfg.Seed, "wl:"+profile.Name), horizon)
	if err != nil {
		return nil, err
	}
	gen.Start()
	return gen, nil
}

// RunProfile runs the profile to its horizon and returns the generator's
// statistics.
func (c *Cloud) RunProfile(profile workload.Profile, horizon sim.Time) (workload.Stats, error) {
	gen, err := c.StartProfile(profile, horizon)
	if err != nil {
		return workload.Stats{}, err
	}
	c.Run(horizon)
	return gen.Stats(), nil
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
	hosts := make([]*inventory.Host, len(inv.Hosts()))
	for i, id := range inv.Hosts() {
		hosts[i] = inv.Host(id)
	}
	dss := make([]*inventory.Datastore, len(inv.Datastores()))
	for i, id := range inv.Datastores() {
		dss[i] = inv.Datastore(id)
	}
	inv.Grow(n)
	for i, name := range prevmNames(0, n) {
		vm, err := inv.AddVM(name, hosts[i%len(hosts)], dss[i%len(dss)], 2, 2048, 1.0)
		if err != nil {
			return fmt.Errorf("core: prepopulate VM %d/%d: %w", i, n, err)
		}
		vm.State = inventory.VMPoweredOff
	}
	return nil
}

// prevmNames returns fmt.Sprintf("prevm%07d", i) for i in [from, from+n),
// all slices of one backing string. It formats the first name once, then
// increments its digits in place, widening it past all nines as %07d
// does, rather than formatting and allocating every name.
func prevmNames(from, n int) []string {
	const prefix = len("prevm")
	name := fmt.Appendf(nil, "prevm%07d", from)
	var b strings.Builder
	b.Grow(n * len(name))
	ends := make([]int, n)
	for k := range ends {
		b.Write(name)
		ends[k] = b.Len()
		i := len(name) - 1
		for ; i >= prefix && name[i] == '9'; i-- {
			name[i] = '0'
		}
		if i < prefix {
			name = slices.Insert(name, prefix, '1')
		} else {
			name[i]++
		}
	}
	all, start := b.String(), 0
	names := make([]string, n)
	for k, end := range ends {
		names[k], start = all[start:end], end
	}
	return names
}

// StageUtilization is one control-plane stage's utilization snapshot.
type StageUtilization struct {
	Stage       string
	Utilization float64 // mean fraction of capacity busy
	MeanQueue   float64 // time-averaged waiters
}

// BottleneckReport ranks the control-plane stages by utilization —
// director cells, per-shard manager threads, admission, and database,
// the busiest host agent, and the busiest datastore engine — answering
// "what saturates first" for the current run. On a single-shard plane
// stage names carry no shard prefix; with several shards each shard
// reports its own stages (prefixed "shardN.") and a shared database
// appears once under its unprefixed name. Call after Run.
func (c *Cloud) BottleneckReport() []StageUtilization {
	var out []StageUtilization
	var prevDB *mgmt.DB
	for _, mgr := range c.plane.Shards() {
		rr := mgr.Resources()
		out = append(out,
			StageUtilization{Stage: rr.Threads.Name, Utilization: rr.Threads.Utilization, MeanQueue: rr.Threads.MeanQueueLen},
			StageUtilization{Stage: rr.Admission.Name, Utilization: rr.Admission.Utilization, MeanQueue: rr.Admission.MeanQueueLen},
		)
		if db := mgr.DB(); db != prevDB {
			// A shared database follows the first shard's stages, once.
			s := db.Stats()
			out = append(out, StageUtilization{Stage: db.Name(), Utilization: s.Utilization, MeanQueue: s.MeanQueueLen})
			prevDB = db
		}
	}
	for i, s := range c.dir.Stats().Cells {
		out = append(out, StageUtilization{
			Stage:       fmt.Sprintf("cell%d", i),
			Utilization: s.Utilization,
			MeanQueue:   s.MeanQueueLen,
		})
	}
	var busyAgent StageUtilization
	agents := c.plane.Home().Agents()
	for _, id := range c.inv.Hosts() {
		s := agents.Agent(id).Stats().Util
		if s.Utilization >= busyAgent.Utilization {
			// Resource names already carry the "hostagent:" prefix.
			busyAgent = StageUtilization{Stage: s.Name, Utilization: s.Utilization, MeanQueue: s.MeanQueueLen}
		}
	}
	if busyAgent.Stage != "" {
		out = append(out, busyAgent)
	}
	var busyDS StageUtilization
	for _, id := range c.inv.Datastores() {
		e := c.pool.Engine(id)
		if e == nil {
			continue
		}
		s := e.Stats()
		if s.BusyFrac >= busyDS.Utilization {
			busyDS = StageUtilization{Stage: "datastore:" + s.Name, Utilization: s.BusyFrac, MeanQueue: s.MeanActive}
		}
	}
	if busyDS.Stage != "" {
		out = append(out, busyDS)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Utilization > out[j].Utilization })
	return out
}
