package mgmt

import (
	"fmt"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
)

// This file provides the concrete management operations as convenience
// wrappers over Execute: each fixes the lock set, host-agent target, and
// data-plane body for its operation kind. The cloud-director layer and the
// plain-datacenter examples both drive the manager through these.

// ReqCtx carries the request attribution shared by every operation helper:
// the tenant, the original submit time (zero means "now"), and any latency
// already accumulated upstream of the manager (the cloud-director cell
// stage), which is folded into the task's breakdown.
type ReqCtx struct {
	Org    string
	Submit sim.Time
	Pre    ops.Breakdown
}

func (c ReqCtx) apply(req *ops.Request, p *sim.Proc) {
	req.Org = c.Org
	req.Submit = float64(c.Submit)
	if req.Submit == 0 {
		req.Submit = float64(p.Now())
	}
}

// DeployVM provisions a new VM from tpl onto host/ds using the requested
// clone mode. On success the VM is left powered off and returned alongside
// the task; on failure the task carries the error and the VM is nil.
func (m *Manager) DeployVM(p *sim.Proc, name string, tpl *inventory.Template, host *inventory.Host, ds *inventory.Datastore, mode ops.CloneMode, ctx ReqCtx) (*inventory.VM, *Task) {
	req := ops.Request{Kind: ops.KindDeploy, Mode: mode, TemplateID: tpl.ID}
	ctx.apply(&req, p)
	var vm *inventory.VM
	task := m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{host.ID, ds.ID, tpl.ID},
		HostID:      host.ID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			// Reserve capacity first so concurrent deploys cannot both
			// pass a free-space check and then overcommit.
			diskGB := tpl.DiskGB
			if mode == ops.LinkedClone {
				diskGB = m.pool.Policy.DeltaDiskGB
			}
			v, err := m.inv.AddVM(name, host, ds, tpl.CPUs, tpl.MemMB, diskGB)
			if err != nil {
				return err
			}
			if mode == ops.LinkedClone {
				v.LinkedParent = tpl.ID
				v.ChainLen = 1
				if _, err := m.pool.LinkedCloneDelta(p, ds.ID); err != nil {
					return err
				}
			} else {
				if err := m.pool.FullCopy(p, ds.ID, tpl.DiskGB); err != nil {
					return err
				}
			}
			v.State = inventory.VMPoweredOff
			vm = v
			return nil
		},
	})
	return vm, task
}

// PowerOn powers on vm.
func (m *Manager) PowerOn(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindPowerOn, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body:        func(p *sim.Proc) error { return m.inv.PowerOn(vm) },
	})
}

// PowerOff powers off vm.
func (m *Manager) PowerOff(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindPowerOff, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body:        func(p *sim.Proc) error { return m.inv.PowerOff(vm) },
	})
}

// SnapshotCreate takes a snapshot of vm, charging snapshot space on its
// datastore and lengthening the VM's disk chain.
func (m *Manager) SnapshotCreate(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindSnapshotCreate, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.DatastoreID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if vm.State == inventory.VMDeleted {
				return fmt.Errorf("mgmt: snapshot of deleted VM %s", vm.Name)
			}
			ds := m.inv.Datastore(vm.DatastoreID)
			gb := m.pool.Policy.SnapshotGB
			if ds.FreeGB() < gb {
				return fmt.Errorf("mgmt: datastore %s out of space for snapshot of %s", ds.Name, vm.Name)
			}
			vm.Snapshots++
			vm.ChainLen++
			vm.DiskGB += gb
			m.inv.AddDatastoreUsed(ds, gb)
			return nil
		},
	})
}

// SnapshotRemove deletes vm's newest snapshot, consolidating one delta.
func (m *Manager) SnapshotRemove(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindSnapshotRemove, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.DatastoreID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if vm.State == inventory.VMDeleted {
				return fmt.Errorf("mgmt: snapshot remove on deleted VM %s", vm.Name)
			}
			if vm.Snapshots == 0 {
				return fmt.Errorf("mgmt: %s has no snapshots", vm.Name)
			}
			if err := m.pool.Consolidate(p, vm.DatastoreID, 1); err != nil {
				return err
			}
			gb := m.pool.Policy.SnapshotGB
			vm.Snapshots--
			vm.ChainLen--
			vm.DiskGB -= gb
			m.inv.AddDatastoreUsed(m.inv.Datastore(vm.DatastoreID), -gb)
			return nil
		},
	})
}

// Reconfigure applies a settings change to vm (no capacity movement).
func (m *Manager) Reconfigure(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindReconfigure, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
	})
}

// Migrate live-migrates vm to dst. The guest-memory copy is charged as
// host-agent time.
func (m *Manager) Migrate(p *sim.Proc, vm *inventory.VM, dst *inventory.Host, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindMigrate, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.HostID, dst.ID},
		HostID:      vm.HostID,
		ExtraHostS:  m.model.MigrateMemCopyS(vm.MemMB),
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			return m.inv.MoveVM(vm, dst, nil)
		},
	})
}

// StorageMigrate moves vm's disks to dst, paying a cross-datastore copy.
func (m *Manager) StorageMigrate(p *sim.Proc, vm *inventory.VM, dst *inventory.Datastore, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindStorageMigrate, VMID: vm.ID}
	ctx.apply(&req, p)
	src := vm.DatastoreID
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, src, dst.ID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if vm.State == inventory.VMDeleted {
				return fmt.Errorf("mgmt: storage migrate of deleted VM %s", vm.Name)
			}
			if dst.ID == src {
				return nil
			}
			if err := m.pool.CrossCopy(p, src, dst.ID, vm.DiskGB); err != nil {
				return err
			}
			return m.inv.MoveVM(vm, nil, dst)
		},
	})
}

// Destroy deletes vm (which must be powered off) and frees its capacity.
func (m *Manager) Destroy(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindDestroy, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.HostID, vm.DatastoreID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body:        func(p *sim.Proc) error { return m.inv.RemoveVM(vm) },
	})
}

// FullCopyTemplate clones tpl's base disk to dst as a new template (the
// data-plane half of catalog publication and shadow-VM creation); the
// control-plane half is charged by the caller's surrounding Execute.
func (m *Manager) FullCopyTemplate(p *sim.Proc, tpl *inventory.Template, dst *inventory.Datastore, name string) (*inventory.Template, error) {
	if dst.FreeGB() < tpl.DiskGB {
		return nil, fmt.Errorf("mgmt: datastore %s out of space for template copy %s", dst.Name, name)
	}
	if err := m.pool.FullCopy(p, dst.ID, tpl.DiskGB); err != nil {
		return nil, err
	}
	return m.inv.AddTemplate(dst, name, tpl.DiskGB, tpl.MemMB, tpl.CPUs), nil
}

// EnterMaintenance puts host into maintenance mode: placement is fenced
// off immediately, then every resident VM is live-migrated to the
// best-fitting other host. If any VM cannot be placed the evacuation
// aborts, the fence is lifted, and the task reports the error.
func (m *Manager) EnterMaintenance(p *sim.Proc, host *inventory.Host, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindMaintenance}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{host.ID},
		HostID:      host.ID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if host.Maintenance {
				return fmt.Errorf("mgmt: host %s already in maintenance", host.Name)
			}
			m.inv.SetHostMaintenance(host, true)
			ids := make([]inventory.ID, len(host.VMs))
			copy(ids, host.VMs)
			for _, id := range ids {
				vm := m.inv.VM(id)
				if vm == nil || vm.State == inventory.VMDeleted {
					continue // deleted while we were evacuating others
				}
				dst := m.evacuationTarget(vm)
				if dst == nil {
					m.inv.SetHostMaintenance(host, false)
					return fmt.Errorf("mgmt: no host fits %s evacuating %s", vm.Name, host.Name)
				}
				if task := m.Migrate(p, vm, dst, ReqCtx{Org: ctx.Org}); task.Err != nil {
					// Concurrent user deletion between the liveness check
					// and the migration is routine churn, not a failure.
					if m.inv.VM(id) == nil || vm.State == inventory.VMDeleted {
						continue
					}
					m.inv.SetHostMaintenance(host, false)
					return fmt.Errorf("mgmt: evacuating %s: %w", host.Name, task.Err)
				}
			}
			return nil
		},
	})
}

// evacuationTarget picks the most-free in-service host (other than the
// VM's current one) that fits the VM's memory and, when powered on, CPU.
func (m *Manager) evacuationTarget(vm *inventory.VM) *inventory.Host {
	cpu := 0
	if vm.State == inventory.VMPoweredOn {
		cpu = inventory.CPUReservationMHz(vm.CPUs)
	}
	return m.inv.BestHostExcluding(vm.HostID, vm.MemMB, cpu)
}

// Suspend checkpoints a running VM: the guest memory image is written to
// the VM's datastore (data-plane cost) and the host's CPU reservation is
// released.
func (m *Manager) Suspend(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindSuspend, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.DatastoreID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if vm.State != inventory.VMPoweredOn {
				return fmt.Errorf("mgmt: suspend %s in state %s", vm.Name, vm.State)
			}
			gb := float64(vm.MemMB) / 1024
			// Reserve/charge first, then write the checkpoint.
			if err := m.inv.Suspend(vm, gb); err != nil {
				return err
			}
			if e := m.pool.Engine(vm.DatastoreID); e != nil {
				e.Copy(p, float64(vm.MemMB))
			}
			return nil
		},
	})
}

// Resume restores a suspended VM: the memory image is read back from the
// datastore and the VM returns to running.
func (m *Manager) Resume(p *sim.Proc, vm *inventory.VM, ctx ReqCtx) *Task {
	req := ops.Request{Kind: ops.KindResume, VMID: vm.ID}
	ctx.apply(&req, p)
	return m.Execute(p, ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{vm.ID, vm.DatastoreID},
		HostID:      vm.HostID,
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			if vm.State != inventory.VMSuspended {
				return fmt.Errorf("mgmt: resume %s in state %s", vm.Name, vm.State)
			}
			if e := m.pool.Engine(vm.DatastoreID); e != nil {
				e.Copy(p, float64(vm.MemMB))
			}
			return m.inv.Resume(vm)
		},
	})
}
