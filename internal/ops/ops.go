// Package ops defines the management-operation taxonomy and the cost model
// that gives every operation its control-plane and data-plane price.
//
// The taxonomy follows the management-workload line of work the paper
// extends: each operation flows through the cloud-director cell, the
// virtualization manager (with database updates), and a host agent, and
// may additionally move bytes on a datastore. The cost model separates
// those components so experiments can show which one saturates first.
//
// Magnitudes are calibrated to the ranges reported for vSphere-era
// control planes (seconds of per-layer processing; datastore-bandwidth-
// bound copies); absolute values are configurable, and the experiment
// harness sweeps the ones that matter.
package ops

import (
	"fmt"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/rng"
)

// Kind identifies a management operation type.
type Kind int

// Management operation kinds.
const (
	// KindDeploy provisions a new VM from a template. Whether it is a
	// full or linked clone is a property of the request/scenario, not a
	// separate kind, mirroring how cloud directors expose it.
	KindDeploy Kind = iota + 1
	KindPowerOn
	KindPowerOff
	KindSnapshotCreate
	KindSnapshotRemove
	KindReconfigure
	KindMigrate
	KindStorageMigrate
	KindDestroy
	KindCatalogPublish
	KindRebalance
	KindConsolidate
	// KindMaintenance is host enter/exit-maintenance: entering evacuates
	// every resident VM via live migration before the host goes dark.
	KindMaintenance
	// KindSuspend checkpoints a running VM's memory to its datastore.
	KindSuspend
	// KindResume restores a suspended VM to running.
	KindResume
)

// kindNames is indexed by Kind; index 0 names no kind.
var kindNames = [...]string{
	KindDeploy:         "deploy",
	KindPowerOn:        "powerOn",
	KindPowerOff:       "powerOff",
	KindSnapshotCreate: "snapshotCreate",
	KindSnapshotRemove: "snapshotRemove",
	KindReconfigure:    "reconfigure",
	KindMigrate:        "migrate",
	KindStorageMigrate: "storageMigrate",
	KindDestroy:        "destroy",
	KindCatalogPublish: "catalogPublish",
	KindRebalance:      "rebalance",
	KindConsolidate:    "consolidate",
	KindMaintenance:    "maintenance",
	KindSuspend:        "suspend",
	KindResume:         "resume",
}

func (k Kind) String() string {
	if k >= KindDeploy && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Kinds lists all operation kinds in canonical order, for tables.
func Kinds() []Kind {
	return []Kind{
		KindDeploy, KindPowerOn, KindPowerOff, KindSnapshotCreate,
		KindSnapshotRemove, KindReconfigure, KindMigrate, KindStorageMigrate,
		KindDestroy, KindCatalogPublish, KindRebalance, KindConsolidate,
		KindMaintenance, KindSuspend, KindResume,
	}
}

// ParseKind returns the Kind with the given String() name.
func ParseKind(s string) (Kind, error) {
	for k := KindDeploy; int(k) < len(kindNames); k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("ops: unknown kind %q", s)
}

// CloneMode selects the provisioning data path for deploys.
type CloneMode int

// Provisioning modes.
const (
	// FullClone copies the template's entire base disk (the classic
	// datacenter path; the paper's "before").
	FullClone CloneMode = iota
	// LinkedClone writes only a small delta disk against the template's
	// base ("fast provisioning"; the paper's "after").
	LinkedClone
)

func (m CloneMode) String() string {
	if m == LinkedClone {
		return "linked"
	}
	return "full"
}

// Request is one management operation submitted to the control plane.
type Request struct {
	Kind Kind
	Mode CloneMode // deploys only

	// Targets. Deploy carries a TemplateID; VM-scoped ops carry VMID.
	TemplateID inventory.ID
	VMID       inventory.ID

	// Submit is the virtual time the request entered the system; it is
	// stamped by the front end.
	Submit float64

	// Org attributes the request to a tenant (reports only).
	Org string
}

// Breakdown records where one operation's latency went, in seconds of
// virtual time. Queue is time spent waiting for admission or locks;
// the remaining fields are service at each layer.
type Breakdown struct {
	Queue float64 // admission + lock wait, all layers
	Cell  float64 // cloud-director cell processing
	Mgmt  float64 // virtualization-manager processing
	DB    float64 // management database updates
	Host  float64 // host-agent execution
	Data  float64 // datastore transfer time
}

// Total returns end-to-end latency.
func (b Breakdown) Total() float64 {
	return b.Queue + b.Cell + b.Mgmt + b.DB + b.Host + b.Data
}

// Add returns the field-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Queue: b.Queue + o.Queue,
		Cell:  b.Cell + o.Cell,
		Mgmt:  b.Mgmt + o.Mgmt,
		DB:    b.DB + o.DB,
		Host:  b.Host + o.Host,
		Data:  b.Data + o.Data,
	}
}

// Scale returns the breakdown with every field multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Queue: b.Queue * f, Cell: b.Cell * f, Mgmt: b.Mgmt * f,
		DB: b.DB * f, Host: b.Host * f, Data: b.Data * f,
	}
}

// StageCost parameterizes the control-plane price of one operation kind.
// Each stage's service time is drawn log-normally around the mean with
// the model's coefficient of variation.
type StageCost struct {
	CellS    float64 // seconds of cell work (request validation, workflow)
	MgmtS    float64 // seconds of manager work (inventory update, task mgmt)
	DBWrites int     // management-database writes issued
	HostS    float64 // seconds of host-agent execution
}

// CostModel prices every operation kind.
type CostModel struct {
	Stage map[Kind]StageCost
	// DBWriteS is seconds per database write.
	DBWriteS float64
	// CV is the coefficient of variation applied to every sampled stage.
	CV float64
	// MigrateMemMBps is the memory-copy rate for live migration; host
	// time for a migrate includes MemMB/MigrateMemMBps.
	MigrateMemMBps float64
}

// DefaultCostModel returns the calibrated model used by the experiments.
//
// Control-plane magnitudes follow the management-workload literature:
// single-digit seconds of serialized work per operation spread across
// cell, manager, and database, with power/deploy ops carrying several
// DB writes (task state, VM config, inventory) and host-agent work in
// the 1-10 s range. Data-plane cost is not priced here — it comes from
// the storage engines — except that migrates charge a memory copy.
func DefaultCostModel() *CostModel {
	return &CostModel{
		Stage: map[Kind]StageCost{
			KindDeploy:         {CellS: 1.2, MgmtS: 2.0, DBWrites: 6, HostS: 3.0},
			KindPowerOn:        {CellS: 0.3, MgmtS: 0.8, DBWrites: 3, HostS: 4.0},
			KindPowerOff:       {CellS: 0.3, MgmtS: 0.6, DBWrites: 3, HostS: 2.0},
			KindSnapshotCreate: {CellS: 0.2, MgmtS: 0.7, DBWrites: 3, HostS: 2.5},
			KindSnapshotRemove: {CellS: 0.2, MgmtS: 0.6, DBWrites: 3, HostS: 2.0},
			KindReconfigure:    {CellS: 0.3, MgmtS: 0.9, DBWrites: 4, HostS: 1.0},
			KindMigrate:        {CellS: 0.4, MgmtS: 1.5, DBWrites: 5, HostS: 4.0},
			KindStorageMigrate: {CellS: 0.4, MgmtS: 1.5, DBWrites: 5, HostS: 3.0},
			KindDestroy:        {CellS: 0.4, MgmtS: 1.0, DBWrites: 4, HostS: 2.0},
			KindCatalogPublish: {CellS: 1.5, MgmtS: 2.0, DBWrites: 8, HostS: 1.0},
			KindRebalance:      {CellS: 1.0, MgmtS: 2.5, DBWrites: 6, HostS: 1.0},
			KindConsolidate:    {CellS: 0.3, MgmtS: 0.8, DBWrites: 3, HostS: 2.0},
			KindMaintenance:    {CellS: 0, MgmtS: 1.5, DBWrites: 4, HostS: 2.0},
			KindSuspend:        {CellS: 0.3, MgmtS: 0.7, DBWrites: 3, HostS: 1.5},
			KindResume:         {CellS: 0.3, MgmtS: 0.7, DBWrites: 3, HostS: 2.0},
		},
		DBWriteS:       0.05,
		CV:             0.25,
		MigrateMemMBps: 1000,
	}
}

// StageSample is one drawn set of manager-side service times, in seconds.
type StageSample struct{ Mgmt, DB, Host float64 }

// stages draws kind k's stage times in their one fixed order (cell,
// manager, database, host), each log-normal around its mean. It computes
// the cell time or the other three, as cell says, and skips the rest, so
// the stream ends where the whole draw would. It panics if the model has
// no entry for k.
func (m *CostModel) stages(s *rng.Stream, k Kind, cell bool) (float64, StageSample) {
	c, ok := m.Stage[k]
	if !ok {
		panic(fmt.Sprintf("ops: no cost entry for %v", k))
	}
	draw := func(mean float64, keep bool) float64 {
		if mean > 0 && keep {
			return s.LogNormal(mean, m.CV)
		} else if mean > 0 {
			s.SkipLogNormal(m.CV)
		}
		return 0
	}
	t := draw(c.CellS, cell)
	return t, StageSample{Mgmt: draw(c.MgmtS, !cell), DB: draw(float64(c.DBWrites)*m.DBWriteS, !cell), Host: draw(c.HostS, !cell)}
}

// Sample draws the manager, database and host service times for one
// operation of kind k.
func (m *CostModel) Sample(s *rng.Stream, k Kind) StageSample {
	_, ss := m.stages(s, k, false)
	return ss
}

// CellS draws the cell service time for one operation of kind k.
func (m *CostModel) CellS(s *rng.Stream, k Kind) float64 {
	t, _ := m.stages(s, k, true)
	return t
}

// MigrateMemCopyS returns the host-side memory-copy seconds for a live
// migration of a VM with the given memory size.
func (m *CostModel) MigrateMemCopyS(memMB int) float64 {
	if m.MigrateMemMBps <= 0 {
		return 0
	}
	return float64(memMB) / m.MigrateMemMBps
}

// Validate checks the model covers every kind with sane values.
func (m *CostModel) Validate() error {
	for _, k := range Kinds() {
		c, ok := m.Stage[k]
		if !ok {
			return fmt.Errorf("ops: missing cost for %v", k)
		}
		if c.CellS < 0 || c.MgmtS < 0 || c.HostS < 0 || c.DBWrites < 0 {
			return fmt.Errorf("ops: negative cost for %v", k)
		}
	}
	if m.DBWriteS < 0 || m.CV < 0 {
		return fmt.Errorf("ops: negative DBWriteS/CV")
	}
	return nil
}
