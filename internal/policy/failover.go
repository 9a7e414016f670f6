package policy

import "cloudmcp/internal/inventory"

// failoverFits reports whether h can host a restarted vm: in service,
// not the (failed) source host, with free memory for the VM and free
// CPU for the reservation it takes back on power-on.
func failoverFits(h *inventory.Host, vm *inventory.VM) bool {
	return h.ID != vm.HostID && h.InService() &&
		h.FreeMemMB() >= vm.MemMB &&
		h.FreeCPUMHz() >= inventory.CPUReservationMHz(vm.CPUs)
}

// mostFreeFailover is the default: restart on the surviving in-service
// host with the most free memory that fits the VM and its CPU
// reservation — the pre-extraction ha.pickTarget, now answered by the
// capacity index in O(log hosts).
type mostFreeFailover struct{}

// DefaultFailover returns the greedy most-free failover policy.
func DefaultFailover() FailoverPolicy { return mostFreeFailover{} }

func (mostFreeFailover) PickTarget(inv *inventory.Inventory, vm *inventory.VM) *inventory.Host {
	return inv.BestHostExcluding(vm.HostID, vm.MemMB, inventory.CPUReservationMHz(vm.CPUs))
}

// packFailover restarts onto the least-free fitting survivor,
// concentrating the storm on already-loaded hosts to keep the rest
// free for foreground placement.
type packFailover struct{}

// PackFailover returns the consolidating failover policy.
func PackFailover() FailoverPolicy { return packFailover{} }

func (packFailover) PickTarget(inv *inventory.Inventory, vm *inventory.VM) *inventory.Host {
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !failoverFits(h, vm) {
			continue
		}
		if best == nil || h.FreeMemMB() < best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// spreadFailover restarts onto the fitting survivor carrying the
// fewest VMs, leveling the restart storm's power-on fan-out across
// hosts (most free memory breaks ties).
type spreadFailover struct{}

// SpreadFailover returns the load-spreading failover policy.
func SpreadFailover() FailoverPolicy { return spreadFailover{} }

func (spreadFailover) PickTarget(inv *inventory.Inventory, vm *inventory.VM) *inventory.Host {
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !failoverFits(h, vm) {
			continue
		}
		if best == nil || len(h.VMs) < len(best.VMs) ||
			(len(h.VMs) == len(best.VMs) && h.FreeMemMB() > best.FreeMemMB()) {
			best = h
		}
	}
	return best
}
