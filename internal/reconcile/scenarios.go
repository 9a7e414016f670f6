package reconcile

import (
	"fmt"
	"strconv"
	"strings"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// The three shipped scenario reconcilers. Each models a background
// workload class the paper's operation mixes only hint at: config-drift
// correction (the steady hum of reconfigure ops), catalog re-sync
// fan-out (periodic publish over every template, all hitting the home
// shard's DB), and storage rebalance when a datastore fills (a burst of
// storage migrations serialized on the same inventory locks foreground
// deploys take).
const (
	ControllerDrift     = "drift"
	ControllerCatalog   = "catalog"
	ControllerRebalance = "rebalance"
)

// ControllerNames lists every shipped controller, in canonical order.
func ControllerNames() []string {
	return []string{ControllerDrift, ControllerCatalog, ControllerRebalance}
}

// reconcileOrg attributes background operations in per-org reports.
const reconcileOrg = "reconcile"

func vmKey(id inventory.ID) string  { return "vm:" + strconv.FormatInt(int64(id), 10) }
func tplKey(id inventory.ID) string { return "tpl:" + strconv.FormatInt(int64(id), 10) }

// parseKey strips the type prefix and returns the object ID, or None
// for a malformed key.
func parseKey(key, prefix string) inventory.ID {
	n, err := strconv.ParseInt(strings.TrimPrefix(key, prefix), 10, 64)
	if err != nil {
		return inventory.None
	}
	return inventory.ID(n)
}

// scenario builds the named shipped controller.
func (r *Plane) scenario(name string) (Controller, error) {
	switch name {
	case ControllerDrift:
		return r.driftController(), nil
	case ControllerCatalog:
		return r.catalogController(), nil
	case ControllerRebalance:
		return r.rebalanceController(), nil
	}
	return Controller{}, fmt.Errorf("reconcile: unknown controller %q", name)
}

// driftController models configuration drift: on each resync, every VM
// independently has drifted with probability DriftRate — decided on a
// stream derived from (seed, vmID, epoch), so which VMs drift in which
// round is a pure function of identifiers — and each drifted VM is
// corrected with a reconfigure through the management plane.
func (r *Plane) driftController() Controller {
	inv := r.plane.Inventory()
	prefix := rng.NewSeedHasher(r.seed).String("reconcile:drift:list:")
	scratch := rng.NewReseeder()
	return Controller{
		Name: ControllerDrift,
		List: func(epoch int64) []string {
			var keys []string
			for _, id := range inv.VMs() {
				s := scratch.Reseed(prefix.Int(int64(id)).Byte(':').Int(epoch).Seed())
				if s.Bernoulli(r.cfg.DriftRate) {
					keys = append(keys, vmKey(id))
				}
			}
			return keys
		},
		Action: func(p *sim.Proc, key string) error {
			vm := inv.VM(parseKey(key, "vm:"))
			if vm == nil || vm.State == inventory.VMDeleted {
				return nil // drifted object vanished: nothing to correct
			}
			task := r.plane.Execute(p, mgmt.ExecSpec{
				Req: ops.Request{
					Kind:   ops.KindReconfigure,
					VMID:   vm.ID,
					Submit: p.Now(),
					Org:    reconcileOrg,
				},
				LockTargets: []inventory.ID{vm.ID},
				HostID:      vm.HostID,
			})
			return task.Err
		},
	}
}

// catalogController models catalog re-sync fan-out: every resync
// republishes every template. Publishes are host-less, so on a sharded
// plane they all land on the home shard — the catalog hot spot the
// sharding experiment (E18) shows does not scale out.
func (r *Plane) catalogController() Controller {
	inv := r.plane.Inventory()
	return Controller{
		Name: ControllerCatalog,
		List: func(epoch int64) []string {
			var keys []string
			for _, id := range inv.Templates() {
				keys = append(keys, tplKey(id))
			}
			return keys
		},
		Action: func(p *sim.Proc, key string) error {
			tpl := inv.Template(parseKey(key, "tpl:"))
			if tpl == nil {
				return nil
			}
			task := r.plane.Execute(p, mgmt.ExecSpec{
				Req: ops.Request{
					Kind:       ops.KindCatalogPublish,
					TemplateID: tpl.ID,
					Submit:     p.Now(),
					Org:        reconcileOrg,
				},
				LockTargets: []inventory.ID{tpl.ID},
				HostID:      inventory.None,
			})
			return task.Err
		},
	}
}

// rebalanceController models "thundering rebalance": when a datastore
// fills past FillFraction, every resident VM is enqueued for a storage
// migration off it — the whole herd arrives at once and is paced only
// by the token bucket and the management plane itself. A VM with no
// viable destination fails and retries on backoff, draining the herd as
// capacity frees up.
func (r *Plane) rebalanceController() Controller {
	inv := r.plane.Inventory()
	return Controller{
		Name: ControllerRebalance,
		List: func(epoch int64) []string {
			var keys []string
			for _, dsID := range inv.Datastores() {
				ds := inv.Datastore(dsID)
				if ds == nil || ds.FillFraction() < r.cfg.FillFraction {
					continue
				}
				for _, id := range ds.VMs {
					keys = append(keys, vmKey(id))
				}
			}
			return keys
		},
		Action: func(p *sim.Proc, key string) error {
			vm := inv.VM(parseKey(key, "vm:"))
			if vm == nil || vm.State == inventory.VMDeleted {
				return nil
			}
			src := inv.Datastore(vm.DatastoreID)
			if src == nil || src.FillFraction() < r.cfg.FillFraction {
				return nil // source drained below threshold: converged
			}
			dst := r.migrationTarget(vm, src)
			if dst == nil {
				return fmt.Errorf("reconcile: no datastore under %.0f%% fill fits %s",
					r.cfg.FillFraction*100, vm.Name)
			}
			task := r.plane.Execute(p, mgmt.ExecSpec{
				Req: ops.Request{
					Kind:   ops.KindStorageMigrate,
					VMID:   vm.ID,
					Submit: p.Now(),
					Org:    reconcileOrg,
				},
				LockTargets: []inventory.ID{vm.ID},
				HostID:      vm.HostID,
				Body: func(bp *sim.Proc) error {
					// Re-resolve under the lock: the herd races for the
					// same destinations and an earlier migration may have
					// filled ours past threshold.
					cur := inv.VM(vm.ID)
					if cur == nil || cur.State == inventory.VMDeleted {
						return nil
					}
					d := r.migrationTarget(cur, inv.Datastore(cur.DatastoreID))
					if d == nil {
						return fmt.Errorf("reconcile: destination filled before %s moved", cur.Name)
					}
					return inv.MoveVM(cur, nil, d)
				},
			})
			return task.Err
		},
	}
}

// migrationTarget picks the destination with the most free space that
// both fits the VM and stays under FillFraction after the move.
// Iteration is over the sorted datastore ID list with a strict
// improvement test, so ties break to the lowest ID — deterministic.
func (r *Plane) migrationTarget(vm *inventory.VM, src *inventory.Datastore) *inventory.Datastore {
	inv := r.plane.Inventory()
	var best *inventory.Datastore
	for _, id := range inv.Datastores() {
		ds := inv.Datastore(id)
		if ds == nil || (src != nil && ds.ID == src.ID) {
			continue
		}
		if ds.CapacityGB <= 0 || (ds.UsedGB+vm.DiskGB)/ds.CapacityGB >= r.cfg.FillFraction {
			continue
		}
		if best == nil || ds.FreeGB() > best.FreeGB() {
			best = ds
		}
	}
	return best
}

// MarkDrifted force-enqueues the given VMs on the drift controller —
// the storm hook E20 uses to model mass drift after a host failure
// (every restarted VM's observed config diverges at once). Returns the
// number of keys enqueued, 0 when the drift controller is not running.
func (r *Plane) MarkDrifted(ids []inventory.ID) int {
	rt := r.find(ControllerDrift)
	if rt == nil {
		return 0
	}
	for _, id := range ids {
		rt.queue.Add(vmKey(id))
	}
	return len(ids)
}
