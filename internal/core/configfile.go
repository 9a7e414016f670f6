package core

// JSON scenario files: a stable, human-editable wire format for Config so
// that experiment setups can be checked into a repo and re-run exactly
// (cmd/mcpsim -config scenario.json). Every package config carries its
// own JSON tags and enum names (mgmt.LockGranularity and
// clouddir.PlacementPolicy decode as words) and is decoded as is; the
// blocks declared here only add block presence and per-field overrides.
// Operation names (not enum values) key the cost overrides.
//
// A scenario is decoded over the wire form of DefaultConfig: a field the
// document omits keeps its default, and a field it gives is used as
// written, zero included. An optional block (mgmt.database, drs,
// faults.retry, reconcile) starts from its package defaults when
// present.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/storage"
)

// ConfigFile is the JSON wire form of a Config.
type ConfigFile struct {
	Seed int64 `json:"seed,omitempty"`

	// Policy names a policy set (internal/policy) for the decision
	// points: placement, DRS move choice, HA failover, retry, admission.
	// Empty is "default", which reproduces the hardcoded behavior.
	Policy string `json:"policy,omitempty"`

	Topology Topology        `json:"topology"`
	Mgmt     MgmtFile        `json:"mgmt"`
	Plane    plane.Config    `json:"plane"`
	Director clouddir.Config `json:"director"`
	Storage  storage.Policy  `json:"storage"`
	DRS      *DRSFile        `json:"drs,omitempty"`

	// Costs overrides per-operation stage costs by operation name
	// (ops.Kind String() names, e.g. "deploy", "powerOn").
	Costs map[string]CostFile `json:"costs,omitempty"`
	// CostCV overrides the cost model's coefficient of variation
	// (nil keeps the default).
	CostCV *float64 `json:"costCV,omitempty"`

	Record  bool `json:"record"`
	Metrics bool `json:"metrics"`

	Faults *FaultsFile `json:"faults,omitempty"`

	Reconcile *ReconcileFile `json:"reconcile,omitempty"`
}

// ReconcileFile is reconcile.Config in wire form; presence enables the
// reconciliation plane, and a block without a controllers list runs
// every controller.
type ReconcileFile reconcile.Config

// UnmarshalJSON decodes the block over reconcile.DefaultConfig() with
// every controller named.
func (r *ReconcileFile) UnmarshalJSON(b []byte) error {
	def := reconcile.DefaultConfig()
	def.Controllers = reconcile.ControllerNames()
	v, err := decodeOver(bytes.NewReader(b), def)
	*r = ReconcileFile(v)
	return err
}

// FaultsFile configures fault injection (internal/faults) and the
// manager's retry policy. Rate seeds every layer from faults.Preset;
// the per-layer blocks then override whole layers. Without a retry
// block the policy set's retry applies.
type FaultsFile struct {
	Rate    float64       `json:"rate,omitempty"`
	Host    *faults.Layer `json:"host,omitempty"`
	DB      *faults.Layer `json:"db,omitempty"`
	Storage *faults.Layer `json:"storage,omitempty"`
	Retry   *RetryFile    `json:"retry,omitempty"`
}

// RetryFile is mgmt.RetryPolicy in wire form.
type RetryFile mgmt.RetryPolicy

// UnmarshalJSON decodes the block over mgmt.DefaultRetryPolicy().
func (r *RetryFile) UnmarshalJSON(b []byte) error {
	v, err := decodeOver(bytes.NewReader(b), mgmt.DefaultRetryPolicy())
	*r = RetryFile(v)
	return err
}

// MgmtFile is mgmt.Config plus the optional database model, whose block
// decodes over its package defaults.
type MgmtFile struct {
	mgmt.Config
	Database *DatabaseFile `json:"database,omitempty"`
}

// DatabaseFile is mgmtdb.Config in wire form.
type DatabaseFile mgmtdb.Config

// UnmarshalJSON decodes the block over mgmtdb.DefaultConfig().
func (d *DatabaseFile) UnmarshalJSON(b []byte) error {
	v, err := decodeOver(bytes.NewReader(b), mgmtdb.DefaultConfig())
	*d = DatabaseFile(v)
	return err
}

// DRSFile is drs.Config in wire form; presence enables the balancer
// unless the threshold is zero.
type DRSFile drs.Config

// UnmarshalJSON decodes the block over drs.DefaultConfig().
func (d *DRSFile) UnmarshalJSON(b []byte) error {
	v, err := decodeOver(bytes.NewReader(b), drs.DefaultConfig())
	*d = DRSFile(v)
	return err
}

// CostFile mirrors ops.StageCost. An entry overrides the fields it
// gives; a nil field keeps the default model's cost for the operation.
type CostFile struct {
	CellS    *float64 `json:"cellS,omitempty"`
	MgmtS    *float64 `json:"mgmtS,omitempty"`
	DBWrites *int     `json:"dbWrites,omitempty"`
	HostS    *float64 `json:"hostS,omitempty"`
}

// decodeOver decodes the one JSON value r holds over v, rejecting
// unknown fields and any data after the value; a number decoded into an
// interface stays a json.Number, so none is rounded. The document
// decodes over defaultConfigFile, and each optional block's
// UnmarshalJSON over its package defaults: the document decoder's
// strictness does not reach inside a custom unmarshaler, so every block
// restates it through this one function.
func decodeOver[T any](r io.Reader, v T) (T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return v, errors.New("data after the JSON value")
	}
	return v, nil
}

// defaultConfigFile is DefaultConfig(seed) in wire form: what
// WriteDefaultConfig prints and what LoadConfig decodes a scenario over.
// DefaultConfig has none of the optional blocks, so they stay nil.
func defaultConfigFile(seed int64) ConfigFile {
	def := DefaultConfig(seed)
	return ConfigFile{
		Seed:     seed,
		Policy:   def.Policy,
		Topology: def.Topology,
		Mgmt:     MgmtFile{Config: def.Mgmt},
		Plane:    def.Plane,
		Director: def.Director,
		Storage:  def.Storage,
		Record:   def.Record,
		Metrics:  def.Metrics,
	}
}

// LoadConfig reads a JSON scenario and decodes it over DefaultConfig.
// Unknown fields are rejected so typos in scenario files fail loudly.
func LoadConfig(r io.Reader) (Config, error) {
	f, err := decodeConfigFile(r)
	if err != nil {
		return Config{}, err
	}
	return f.Apply()
}

func decodeConfigFile(r io.Reader) (ConfigFile, error) {
	f, err := decodeOver(r, defaultConfigFile(0))
	if err != nil {
		return ConfigFile{}, fmt.Errorf("core: parse scenario: %w", err)
	}
	return f, nil
}

// Apply converts the wire form to a runnable Config: every field is
// used as written, then the policy name and the optional blocks are
// validated.
func (f *ConfigFile) Apply() (Config, error) {
	if _, err := policy.Named(f.Policy); err != nil {
		return Config{}, err
	}
	m := f.Mgmt
	cfg := Config{
		Seed:     f.Seed,
		Policy:   f.Policy,
		Topology: f.Topology,
		Mgmt:     m.Config,
		Plane:    f.Plane,
		Director: f.Director,
		Storage:  f.Storage,
		Record:   f.Record,
		Metrics:  f.Metrics,
	}
	if err := cfg.Plane.Validate(); err != nil {
		return Config{}, err
	}
	if db := m.Database; db != nil {
		c := mgmtdb.Config(*db)
		cfg.Mgmt.Database = &c
	}
	if d := f.DRS; d != nil {
		cfg.DRS = drs.Config(*d)
	}
	if f.Costs != nil || f.CostCV != nil {
		model := ops.DefaultCostModel()
		if f.CostCV != nil {
			model.CV = *f.CostCV
		}
		// Sorted, so that of two bad names the error always reports the
		// same one.
		names := make([]string, 0, len(f.Costs))
		for name := range f.Costs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			over := f.Costs[name]
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
		if ff.Storage != nil {
			fc.Storage = *ff.Storage
		}
		if err := fc.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Faults = &fc
		if r := ff.Retry; r != nil {
			cfg.Mgmt.Retry = mgmt.RetryPolicy(*r)
		}
	}
	if rf := f.Reconcile; rf != nil {
		rc := reconcile.Config(*rf)
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
	f := defaultConfigFile(seed)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&f)
}
