// Package ha models high-availability failover: when a host fails, every
// VM it ran dies instantly (no management operations involved), and the
// HA engine restarts the powered-on ones on surviving hosts — a burst of
// re-registrations and power-ons that arrives at the management control
// plane all at once. Failures are thus another source of induced
// management workload, and restart-storm completion time depends on how
// busy the control plane already is (experiment E16).
package ha

import (
	"fmt"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/sim"
)

// Config sizes the HA engine.
type Config struct {
	// MaxConcurrentRestarts throttles the restart storm, as real HA
	// engines do to avoid overwhelming the surviving hosts.
	MaxConcurrentRestarts int
}

// DefaultConfig allows 32 concurrent restarts.
func DefaultConfig() Config { return Config{MaxConcurrentRestarts: 32} }

// Failover records one host-failure recovery.
type Failover struct {
	Host      inventory.ID
	Start     sim.Time
	End       sim.Time
	Affected  int // VMs that were on the host
	Restarted int // successfully powered on elsewhere
	Unplaced  int // no surviving host had room
	Errors    int // restart operations that failed
}

// Duration returns the failover's wall time in virtual seconds.
func (f *Failover) Duration() float64 { return f.End - f.Start }

// Engine drives failovers through the management plane, which routes
// each restart to the shard that owns the VM's new host.
type Engine struct {
	env  *sim.Env
	pl   *plane.Plane
	pick policy.FailoverPolicy
	cfg  Config

	slots     *sim.Resource
	failovers []Failover
}

// New builds an HA engine; pick chooses each restart's target host.
func New(env *sim.Env, pl *plane.Plane, pick policy.FailoverPolicy, cfg Config) (*Engine, error) {
	if cfg.MaxConcurrentRestarts <= 0 {
		return nil, fmt.Errorf("ha: restart concurrency %d", cfg.MaxConcurrentRestarts)
	}
	return &Engine{
		env: env, pl: pl, pick: pick, cfg: cfg,
		slots: sim.NewResource(env, "ha.restarts", cfg.MaxConcurrentRestarts),
	}, nil
}

// FailHost crashes host: its VMs stop instantly, placement fences the
// host, and the restart storm brings the previously powered-on VMs back
// on surviving hosts. FailHost blocks p until the storm completes and
// returns the failover record.
func (e *Engine) FailHost(p *sim.Proc, host *inventory.Host) *Failover {
	inv := e.pl.Inventory()
	fo := Failover{Host: host.ID, Start: p.Now()}
	inv.SetHostFailed(host, true)

	// The crash itself is instantaneous: powered-on VMs stop without any
	// management operation (their CPU reservation vanishes with the host).
	var toRestart []*inventory.VM
	ids := make([]inventory.ID, len(host.VMs))
	copy(ids, host.VMs)
	for _, id := range ids {
		vm := inv.VM(id)
		if vm == nil {
			continue
		}
		fo.Affected++
		if vm.State == inventory.VMPoweredOn {
			inv.PowerOff(vm)
			toRestart = append(toRestart, vm)
		}
	}

	// Restart storm: each protected VM re-registers on a surviving host
	// (inventory move; disks are on shared storage) and powers on through
	// the normal management path, throttled to MaxConcurrentRestarts. The
	// fan-out runs on the shared reconciliation primitive, whose shape is
	// pinned to the hand-rolled storm this used
	// (TestFailHostMatchesHandRolledStorm).
	names := make([]string, len(toRestart))
	for i, vm := range toRestart {
		names[i] = "ha-restart:" + vm.Name
	}
	reconcile.FanOut(p, e.env, e.slots, names, func(rp *sim.Proc, i int) {
		vm := toRestart[i]
		if inv.VM(vm.ID) == nil || vm.State == inventory.VMDeleted {
			return // deleted while queued
		}
		target := e.pickTarget(vm)
		if target == nil {
			fo.Unplaced++
			return
		}
		if err := inv.MoveVM(vm, target, nil); err != nil {
			fo.Unplaced++
			return
		}
		task := e.pl.PowerOn(rp, vm, mgmt.ReqCtx{Org: "ha"})
		if task.Err != nil {
			fo.Errors++
			return
		}
		fo.Restarted++
	})
	fo.End = p.Now()
	e.failovers = append(e.failovers, fo)
	out := fo
	return &out
}

// pickTarget chooses the restart host via the configured failover
// policy. The default (most-free) policy answers from the capacity
// index in O(log hosts) — under the E19 million-VM ladder, a failover
// storm over the old O(hosts) scan went quadratic.
func (e *Engine) pickTarget(vm *inventory.VM) *inventory.Host {
	return e.pick.PickTarget(e.pl.Inventory(), vm)
}
