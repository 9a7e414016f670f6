package policy

import "cloudmcp/internal/inventory"

// mostFreePlacement is the default: most free memory / most effective
// free capacity wins, first in creation order on ties — served by the
// capacity indexes, identical to the pre-extraction clouddir calls.
type mostFreePlacement struct{}

// DefaultPlacement returns the greedy most-free placement policy.
func DefaultPlacement() PlacementPolicy { return mostFreePlacement{} }

func (mostFreePlacement) BestHost(inv *inventory.Inventory, memMB, group int) *inventory.Host {
	if group >= 0 {
		return inv.BestHostInGroup(group, memMB)
	}
	return inv.BestHost(memMB)
}

func (mostFreePlacement) BestDatastore(inv *inventory.Inventory, needGB float64) *inventory.Datastore {
	return inv.BestDatastore(needGB)
}

// hostInGroup reports whether id belongs to group (group < 0 matches
// every host), mirroring the group restriction of BestHostInGroup.
func hostInGroup(inv *inventory.Inventory, id inventory.ID, group int) bool {
	if group < 0 {
		return true
	}
	g, ok := inv.HostGroup(id)
	return ok && g == group
}

// binpackPlacement packs: the *least* free host/datastore that still
// fits wins, consolidating load onto few targets and keeping the rest
// empty (favors power-off headroom at the cost of hotspot risk).
type binpackPlacement struct{}

// BinpackPlacement returns the consolidating placement policy.
func BinpackPlacement() PlacementPolicy { return binpackPlacement{} }

func (binpackPlacement) BestHost(inv *inventory.Inventory, memMB, group int) *inventory.Host {
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		if !hostInGroup(inv, id, group) {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || h.FreeMemMB() < best.FreeMemMB() {
			best = h
		}
	}
	return best
}

func (binpackPlacement) BestDatastore(inv *inventory.Inventory, needGB float64) *inventory.Datastore {
	var best *inventory.Datastore
	for _, id := range inv.Datastores() {
		d := inv.Datastore(id)
		if inv.EffectiveFreeGB(d) < needGB {
			continue
		}
		if best == nil || inv.EffectiveFreeGB(d) < inv.EffectiveFreeGB(best) {
			best = d
		}
	}
	return best
}

// spreadPlacement spreads: the fitting host carrying the fewest VMs
// wins (most free memory breaks ties), leveling per-host management
// fan-out rather than capacity. Datastores fall back to most-free —
// disk count is not the contended resource there.
type spreadPlacement struct{}

// SpreadPlacement returns the load-spreading placement policy.
func SpreadPlacement() PlacementPolicy { return spreadPlacement{} }

func (spreadPlacement) BestHost(inv *inventory.Inventory, memMB, group int) *inventory.Host {
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		if !hostInGroup(inv, id, group) {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || len(h.VMs) < len(best.VMs) ||
			(len(h.VMs) == len(best.VMs) && h.FreeMemMB() > best.FreeMemMB()) {
			best = h
		}
	}
	return best
}

func (spreadPlacement) BestDatastore(inv *inventory.Inventory, needGB float64) *inventory.Datastore {
	return inv.BestDatastore(needGB)
}
