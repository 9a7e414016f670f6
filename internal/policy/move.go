package policy

import "cloudmcp/internal/inventory"

// moveFits reports whether migrating vm from hi to lo is admissible
// under the invariants every move policy shares: vm must be live, fit
// lo's free memory (and CPU reservation if powered on), and must not
// turn lo into a hotspot at least as bad as hi currently is.
func moveFits(vm *inventory.VM, hi, lo *inventory.Host) bool {
	if vm == nil || vm.State == inventory.VMDeleted {
		return false
	}
	if lo.FreeMemMB() < vm.MemMB {
		return false
	}
	if vm.State == inventory.VMPoweredOn && lo.FreeCPUMHz() < inventory.CPUReservationMHz(vm.CPUs) {
		return false
	}
	return float64(lo.UsedMemMB+vm.MemMB)/float64(lo.MemMB) < memUtil(hi)
}

func memUtil(h *inventory.Host) float64 {
	if h.MemMB == 0 {
		return 0
	}
	return float64(h.UsedMemMB) / float64(h.MemMB)
}

// biggestFitMove is the default: the largest-memory admissible VM on
// hi moves (strict >, first in host order on ties) — byte-identical to
// the pre-extraction drs.pickMovable.
type biggestFitMove struct{}

// DefaultMove returns the biggest-fit DRS move policy.
func DefaultMove() MovePolicy { return biggestFitMove{} }

func (biggestFitMove) Pick(inv *inventory.Inventory, hi, lo *inventory.Host) *inventory.VM {
	var best *inventory.VM
	for _, id := range hi.VMs {
		vm := inv.VM(id)
		if !moveFits(vm, hi, lo) {
			continue
		}
		if best == nil || vm.MemMB > best.MemMB {
			best = vm
		}
	}
	return best
}

// smallestFitMove migrates the smallest admissible VM: many cheap
// migrations instead of few heavy ones, trading convergence speed for
// per-move copy cost.
type smallestFitMove struct{}

// SmallestFitMove returns the smallest-fit DRS move policy.
func SmallestFitMove() MovePolicy { return smallestFitMove{} }

func (smallestFitMove) Pick(inv *inventory.Inventory, hi, lo *inventory.Host) *inventory.VM {
	var best *inventory.VM
	for _, id := range hi.VMs {
		vm := inv.VM(id)
		if !moveFits(vm, hi, lo) {
			continue
		}
		if best == nil || vm.MemMB < best.MemMB {
			best = vm
		}
	}
	return best
}

// bandMove targets the utilization band: it picks the admissible VM
// whose move lands lo's utilization closest to the midpoint between
// hi and lo — one well-sized move instead of repeatedly shipping the
// biggest VM and overshooting.
type bandMove struct{}

// BandMove returns the utilization-band DRS move policy.
func BandMove() MovePolicy { return bandMove{} }

func (bandMove) Pick(inv *inventory.Inventory, hi, lo *inventory.Host) *inventory.VM {
	mid := (memUtil(hi) + memUtil(lo)) / 2
	var best *inventory.VM
	bestDist := 0.0
	for _, id := range hi.VMs {
		vm := inv.VM(id)
		if !moveFits(vm, hi, lo) {
			continue
		}
		after := float64(lo.UsedMemMB+vm.MemMB) / float64(lo.MemMB)
		dist := after - mid
		if dist < 0 {
			dist = -dist
		}
		if best == nil || dist < bestDist {
			best, bestDist = vm, dist
		}
	}
	return best
}
