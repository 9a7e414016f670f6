package core

// JSON scenario files: a stable, human-editable wire format for Config so
// that experiment setups can be checked into a repo and re-run exactly
// (cmd/mcpsim -config scenario.json). The wire format is decoupled from
// the in-memory structs so internal refactors don't break saved
// scenarios; operation names (not enum values) key the cost overrides.

import (
	"encoding/json"
	"fmt"
	"io"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/netsim"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
)

// ConfigFile is the JSON wire form of a Config. Zero-valued fields keep
// the defaults of DefaultConfig(seed).
type ConfigFile struct {
	Seed int64 `json:"seed,omitempty"`

	// Policy names a policy set (internal/policy) for the decision
	// points: placement, DRS move choice, HA failover, retry, admission.
	// Empty keeps "default", which reproduces the hardcoded behavior.
	Policy string `json:"policy,omitempty"`

	Topology *TopologyFile `json:"topology,omitempty"`
	Mgmt     *MgmtFile     `json:"mgmt,omitempty"`
	Plane    *PlaneFile    `json:"plane,omitempty"`
	Director *DirectorFile `json:"director,omitempty"`
	Storage  *StorageFile  `json:"storage,omitempty"`
	DRS      *DRSFile      `json:"drs,omitempty"`

	// Costs overrides per-operation stage costs by operation name
	// (ops.Kind String() names, e.g. "deploy", "powerOn").
	Costs map[string]CostFile `json:"costs,omitempty"`
	// CostCV overrides the cost model's coefficient of variation
	// (nil keeps the default).
	CostCV *float64 `json:"costCV,omitempty"`

	Record  *bool `json:"record,omitempty"`
	Metrics *bool `json:"metrics,omitempty"`

	Faults *FaultsFile `json:"faults,omitempty"`

	Reconcile *ReconcileFile `json:"reconcile,omitempty"`
}

// ReconcileFile configures the reconciliation plane (internal/reconcile);
// presence enables it. Zero fields keep reconcile.DefaultConfig().
type ReconcileFile struct {
	Controllers  []string                 `json:"controllers,omitempty"`
	IntervalS    float64                  `json:"intervalS,omitempty"`
	Depth        int                      `json:"depth,omitempty"`
	RatePerS     float64                  `json:"ratePerS,omitempty"`
	Burst        float64                  `json:"burst,omitempty"`
	MaxRetries   int                      `json:"maxRetries,omitempty"`
	Backoff      *reconcile.BackoffPolicy `json:"backoff,omitempty"`
	DriftRate    float64                  `json:"driftRate,omitempty"`
	FillFraction float64                  `json:"fillFraction,omitempty"`
}

// FaultsFile configures fault injection (internal/faults) and the
// manager's retry policy. Rate seeds every layer from faults.Preset;
// the per-layer blocks then override whole layers.
type FaultsFile struct {
	Rate    float64       `json:"rate,omitempty"`
	Host    *faults.Layer `json:"host,omitempty"`
	DB      *faults.Layer `json:"db,omitempty"`
	Net     *faults.Layer `json:"net,omitempty"`
	Storage *faults.Layer `json:"storage,omitempty"`
	Retry   *RetryFile    `json:"retry,omitempty"`
}

// RetryFile mirrors mgmt.RetryPolicy; zero fields keep
// mgmt.DefaultRetryPolicy().
type RetryFile struct {
	MaxAttempts  int     `json:"maxAttempts,omitempty"`
	BaseBackoffS float64 `json:"baseBackoffS,omitempty"`
	Multiplier   float64 `json:"multiplier,omitempty"`
	Jitter       float64 `json:"jitter,omitempty"`
	DeadlineS    float64 `json:"deadlineS,omitempty"`
}

// TopologyFile mirrors Topology.
type TopologyFile struct {
	Hosts          int     `json:"hosts,omitempty"`
	HostCPUMHz     int     `json:"hostCPUMHz,omitempty"`
	HostMemMB      int     `json:"hostMemMB,omitempty"`
	Datastores     int     `json:"datastores,omitempty"`
	DatastoreGB    float64 `json:"datastoreGB,omitempty"`
	DatastoreMBps  float64 `json:"datastoreMBps,omitempty"`
	Templates      int     `json:"templates,omitempty"`
	TemplateDiskGB float64 `json:"templateDiskGB,omitempty"`
	TemplateMemMB  int     `json:"templateMemMB,omitempty"`
	TemplateCPUs   int     `json:"templateCPUs,omitempty"`
}

// MgmtFile mirrors mgmt.Config plus the optional substrate models.
type MgmtFile struct {
	Threads     int    `json:"threads,omitempty"`
	DBConns     int    `json:"dbConns,omitempty"`
	MaxInFlight int    `json:"maxInFlight,omitempty"`
	HostSlots   int    `json:"hostSlots,omitempty"`
	Granularity string `json:"granularity,omitempty"` // coarse|host|entity

	Database *DatabaseFile `json:"database,omitempty"`
	Network  *NetworkFile  `json:"network,omitempty"`
}

// PlaneFile mirrors plane.Config: the management-plane topology.
type PlaneFile struct {
	Shards      int     `json:"shards,omitempty"`
	DB          string  `json:"db,omitempty"` // shared|per-shard
	CoordWriteS float64 `json:"coordWriteS,omitempty"`
}

// DatabaseFile mirrors mgmtdb.Config.
type DatabaseFile struct {
	Conns        int     `json:"conns,omitempty"`
	WriteS       float64 `json:"writeS,omitempty"`
	FlushS       float64 `json:"flushS,omitempty"`
	GroupWindowS float64 `json:"groupWindowS,omitempty"`
	GroupRows    bool    `json:"groupRows,omitempty"`
}

// NetworkFile mirrors netsim.Config.
type NetworkFile struct {
	MBps float64 `json:"mbps,omitempty"`
}

// DirectorFile mirrors clouddir.Config.
type DirectorFile struct {
	Cells              int      `json:"cells,omitempty"`
	CellThreads        int      `json:"cellThreads,omitempty"`
	FastProvisioning   *bool    `json:"fastProvisioning,omitempty"`
	MaxChainLen        int      `json:"maxChainLen,omitempty"`
	RebalanceThreshold *float64 `json:"rebalanceThreshold,omitempty"`
	RebalanceCheckS    float64  `json:"rebalanceCheckS,omitempty"`
	RebalanceBatch     int      `json:"rebalanceBatch,omitempty"`
	LeaseS             float64  `json:"leaseS,omitempty"`
	Placement          string   `json:"placement,omitempty"` // most-free|sticky-org
	OrgQuotaVMs        int      `json:"orgQuotaVMs,omitempty"`
}

// DRSFile mirrors drs.Config; presence enables the balancer.
type DRSFile struct {
	Threshold float64 `json:"threshold,omitempty"`
	CheckS    float64 `json:"checkS,omitempty"`
	Batch     int     `json:"batch,omitempty"`
}

// StorageFile mirrors storage.Policy.
type StorageFile struct {
	DeltaDiskGB  float64 `json:"deltaDiskGB,omitempty"`
	DeltaWriteMB float64 `json:"deltaWriteMB,omitempty"`
	MaxChainLen  int     `json:"maxChainLen,omitempty"`
	SnapshotGB   float64 `json:"snapshotGB,omitempty"`
}

// CostFile mirrors ops.StageCost.
type CostFile struct {
	CellS    *float64 `json:"cellS,omitempty"`
	MgmtS    *float64 `json:"mgmtS,omitempty"`
	DBWrites *int     `json:"dbWrites,omitempty"`
	HostS    *float64 `json:"hostS,omitempty"`
}

// LoadConfig reads a JSON scenario and applies it over DefaultConfig.
// Unknown fields are rejected so typos in scenario files fail loudly.
func LoadConfig(r io.Reader) (Config, error) {
	f, err := decodeConfigFile(r)
	if err != nil {
		return Config{}, err
	}
	return f.Apply()
}

func decodeConfigFile(r io.Reader) (ConfigFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f ConfigFile
	if err := dec.Decode(&f); err != nil {
		return ConfigFile{}, fmt.Errorf("core: parse scenario: %w", err)
	}
	return f, nil
}

// Apply converts the wire form to a runnable Config over the defaults.
func (f *ConfigFile) Apply() (Config, error) {
	cfg := DefaultConfig(f.Seed)
	if f.Policy != "" {
		if _, err := policy.Named(f.Policy); err != nil {
			return Config{}, err
		}
		cfg.Policy = f.Policy
	}
	if t := f.Topology; t != nil {
		setInt := func(dst *int, v int) {
			if v != 0 {
				*dst = v
			}
		}
		setF := func(dst *float64, v float64) {
			if v != 0 {
				*dst = v
			}
		}
		setInt(&cfg.Topology.Hosts, t.Hosts)
		setInt(&cfg.Topology.HostCPUMHz, t.HostCPUMHz)
		setInt(&cfg.Topology.HostMemMB, t.HostMemMB)
		setInt(&cfg.Topology.Datastores, t.Datastores)
		setF(&cfg.Topology.DatastoreGB, t.DatastoreGB)
		setF(&cfg.Topology.DatastoreMBps, t.DatastoreMBps)
		setInt(&cfg.Topology.Templates, t.Templates)
		setF(&cfg.Topology.TemplateDiskGB, t.TemplateDiskGB)
		setInt(&cfg.Topology.TemplateMemMB, t.TemplateMemMB)
		setInt(&cfg.Topology.TemplateCPUs, t.TemplateCPUs)
	}
	if m := f.Mgmt; m != nil {
		if m.Threads != 0 {
			cfg.Mgmt.Threads = m.Threads
		}
		if m.DBConns != 0 {
			cfg.Mgmt.DBConns = m.DBConns
		}
		if m.MaxInFlight != 0 {
			cfg.Mgmt.MaxInFlight = m.MaxInFlight
		}
		if m.HostSlots != 0 {
			cfg.Mgmt.HostSlots = m.HostSlots
		}
		if m.Granularity != "" {
			g, err := mgmt.ParseGranularity(m.Granularity)
			if err != nil {
				return Config{}, err
			}
			cfg.Mgmt.Granularity = g
		}
		if m.Database != nil {
			db := mgmtdb.DefaultConfig()
			if m.Database.Conns != 0 {
				db.Conns = m.Database.Conns
			}
			if m.Database.WriteS != 0 {
				db.WriteS = m.Database.WriteS
			}
			if m.Database.FlushS != 0 {
				db.FlushS = m.Database.FlushS
			}
			if m.Database.GroupWindowS != 0 {
				db.GroupWindowS = m.Database.GroupWindowS
			}
			if m.Database.GroupRows {
				db.GroupRows = true
			}
			cfg.Mgmt.Database = &db
		}
		if m.Network != nil {
			net := netsim.DefaultConfig()
			if m.Network.MBps != 0 {
				net.MBps = m.Network.MBps
			}
			cfg.Mgmt.Network = &net
		}
	}
	if p := f.Plane; p != nil {
		if p.Shards != 0 {
			cfg.Plane.Shards = p.Shards
		}
		if p.DB != "" {
			cfg.Plane.DB = plane.DBMode(p.DB) // Validate below rejects unknown modes
		}
		if p.CoordWriteS != 0 {
			cfg.Plane.CoordWriteS = p.CoordWriteS
		}
		if err := cfg.Plane.Validate(); err != nil {
			return Config{}, err
		}
	}
	if d := f.Director; d != nil {
		if d.Cells != 0 {
			cfg.Director.Cells = d.Cells
		}
		if d.CellThreads != 0 {
			cfg.Director.CellThreads = d.CellThreads
		}
		if d.FastProvisioning != nil {
			cfg.Director.FastProvisioning = *d.FastProvisioning
		}
		if d.MaxChainLen != 0 {
			cfg.Director.MaxChainLen = d.MaxChainLen
		}
		if d.RebalanceThreshold != nil {
			cfg.Director.RebalanceThreshold = *d.RebalanceThreshold
		}
		if d.RebalanceCheckS != 0 {
			cfg.Director.RebalanceCheckS = d.RebalanceCheckS
		}
		if d.RebalanceBatch != 0 {
			cfg.Director.RebalanceBatch = d.RebalanceBatch
		}
		if d.LeaseS != 0 {
			cfg.Director.LeaseS = d.LeaseS
		}
		if d.Placement != "" {
			p, err := clouddir.ParsePlacement(d.Placement)
			if err != nil {
				return Config{}, err
			}
			cfg.Director.Placement = p
		}
		if d.OrgQuotaVMs != 0 {
			cfg.Director.OrgQuotaVMs = d.OrgQuotaVMs
		}
	}
	if d := f.DRS; d != nil {
		cfg.DRS = drs.DefaultConfig()
		if d.Threshold != 0 {
			cfg.DRS.Threshold = d.Threshold
		}
		if d.CheckS != 0 {
			cfg.DRS.CheckS = d.CheckS
		}
		if d.Batch != 0 {
			cfg.DRS.Batch = d.Batch
		}
	}
	if s := f.Storage; s != nil {
		if s.DeltaDiskGB != 0 {
			cfg.Storage.DeltaDiskGB = s.DeltaDiskGB
		}
		if s.DeltaWriteMB != 0 {
			cfg.Storage.DeltaWriteMB = s.DeltaWriteMB
		}
		if s.MaxChainLen != 0 {
			cfg.Storage.MaxChainLen = s.MaxChainLen
		}
		if s.SnapshotGB != 0 {
			cfg.Storage.SnapshotGB = s.SnapshotGB
		}
	}
	if len(f.Costs) > 0 || f.CostCV != nil {
		model := ops.DefaultCostModel()
		if f.CostCV != nil {
			model.CV = *f.CostCV
		}
		for name, over := range f.Costs {
			kind, err := ops.ParseKind(name)
			if err != nil {
				return Config{}, fmt.Errorf("core: cost override: %w", err)
			}
			c := model.Stage[kind]
			if over.CellS != nil {
				c.CellS = *over.CellS
			}
			if over.MgmtS != nil {
				c.MgmtS = *over.MgmtS
			}
			if over.DBWrites != nil {
				c.DBWrites = *over.DBWrites
			}
			if over.HostS != nil {
				c.HostS = *over.HostS
			}
			model.Stage[kind] = c
		}
		if err := model.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Model = model
	}
	if f.Record != nil {
		cfg.Record = *f.Record
	}
	if f.Metrics != nil {
		cfg.Metrics = *f.Metrics
	}
	if ff := f.Faults; ff != nil {
		if ff.Rate < 0 || ff.Rate > 1 {
			return Config{}, fmt.Errorf("core: faults rate must be in [0,1], got %g", ff.Rate)
		}
		fc := faults.Preset(ff.Rate)
		if ff.Host != nil {
			fc.Host = *ff.Host
		}
		if ff.DB != nil {
			fc.DB = *ff.DB
		}
		if ff.Net != nil {
			fc.Net = *ff.Net
		}
		if ff.Storage != nil {
			fc.Storage = *ff.Storage
		}
		if err := fc.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Faults = &fc
		if r := ff.Retry; r != nil {
			pol := mgmt.DefaultRetryPolicy()
			if r.MaxAttempts != 0 {
				pol.MaxAttempts = r.MaxAttempts
			}
			if r.BaseBackoffS != 0 {
				pol.BaseBackoff = r.BaseBackoffS
			}
			if r.Multiplier != 0 {
				pol.Multiplier = r.Multiplier
			}
			if r.Jitter != 0 {
				pol.DeterministicJitter = r.Jitter
			}
			if r.DeadlineS != 0 {
				pol.Deadline = r.DeadlineS
			}
			cfg.Mgmt.Retry = pol
		}
	}
	if rf := f.Reconcile; rf != nil {
		rc := reconcile.DefaultConfig()
		rc.Controllers = rf.Controllers
		if len(rc.Controllers) == 0 {
			// Presence of the block without a controller list means "all".
			rc.Controllers = reconcile.ControllerNames()
		}
		if rf.IntervalS != 0 {
			rc.IntervalS = rf.IntervalS
		}
		if rf.Depth != 0 {
			rc.Depth = rf.Depth
		}
		if rf.RatePerS != 0 {
			rc.RatePerS = rf.RatePerS
		}
		if rf.Burst != 0 {
			rc.Burst = rf.Burst
		}
		if rf.MaxRetries != 0 {
			rc.MaxRetries = rf.MaxRetries
		}
		if rf.Backoff != nil {
			rc.Backoff = *rf.Backoff
		}
		if rf.DriftRate != 0 {
			rc.DriftRate = rf.DriftRate
		}
		if rf.FillFraction != 0 {
			rc.FillFraction = rf.FillFraction
		}
		if err := rc.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Reconcile = &rc
	}
	return cfg, nil
}

// WriteDefaultConfig emits a fully-populated scenario file matching
// DefaultConfig(seed), as a starting point for editing.
func WriteDefaultConfig(w io.Writer, seed int64) error {
	def := DefaultConfig(seed)
	fast := def.Director.FastProvisioning
	rec := def.Record
	met := def.Metrics
	thr := def.Director.RebalanceThreshold
	f := ConfigFile{
		Seed: seed,
		Topology: &TopologyFile{
			Hosts: def.Topology.Hosts, HostCPUMHz: def.Topology.HostCPUMHz, HostMemMB: def.Topology.HostMemMB,
			Datastores: def.Topology.Datastores, DatastoreGB: def.Topology.DatastoreGB, DatastoreMBps: def.Topology.DatastoreMBps,
			Templates: def.Topology.Templates, TemplateDiskGB: def.Topology.TemplateDiskGB,
			TemplateMemMB: def.Topology.TemplateMemMB, TemplateCPUs: def.Topology.TemplateCPUs,
		},
		Mgmt: &MgmtFile{
			Threads: def.Mgmt.Threads, DBConns: def.Mgmt.DBConns,
			MaxInFlight: def.Mgmt.MaxInFlight, HostSlots: def.Mgmt.HostSlots,
			Granularity: def.Mgmt.Granularity.String(),
		},
		Plane: &PlaneFile{
			Shards: def.Plane.Shards, DB: string(def.Plane.DB),
			CoordWriteS: def.Plane.CoordWriteS,
		},
		Director: &DirectorFile{
			Cells: def.Director.Cells, CellThreads: def.Director.CellThreads,
			FastProvisioning: &fast, RebalanceThreshold: &thr,
			RebalanceCheckS: def.Director.RebalanceCheckS, RebalanceBatch: def.Director.RebalanceBatch,
			Placement: def.Director.Placement.String(),
		},
		Storage: &StorageFile{
			DeltaDiskGB: def.Storage.DeltaDiskGB, DeltaWriteMB: def.Storage.DeltaWriteMB,
			MaxChainLen: def.Storage.MaxChainLen, SnapshotGB: def.Storage.SnapshotGB,
		},
		Record:  &rec,
		Metrics: &met,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&f)
}
