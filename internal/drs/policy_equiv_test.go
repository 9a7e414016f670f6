package drs

import (
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/policy"
)

// TestDefaultMoveMatchesReferenceFuzz pins policy.DefaultMove (the
// extracted biggest-fit move policy) to the retained hardcoded scan
// pickMovableReference bit-for-bit under deterministic churn, over
// every ordered (hi, lo) host pair.
func TestDefaultMoveMatchesReferenceFuzz(t *testing.T) {
	f := newFixture(t, Config{Threshold: 0.2, CheckS: 60, Batch: 4})
	inv := f.inv
	move := policy.DefaultMove()
	var vms []*inventory.VM
	state := uint64(0x5eed)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for step := 0; step < 2000; step++ {
		switch next(5) {
		case 0, 1:
			h := f.hosts[next(len(f.hosts))]
			if vm, err := inv.AddVM("vm", h, f.ds, 1+next(4), 1024*(1+next(6)), 1); err == nil {
				vms = append(vms, vm)
			}
		case 2:
			if len(vms) > 0 {
				vm := vms[next(len(vms))]
				if vm.State == inventory.VMPoweredOff {
					_ = inv.PowerOn(vm)
				}
			}
		case 3:
			if len(vms) > 0 {
				vm := vms[next(len(vms))]
				if vm.State == inventory.VMPoweredOn {
					_ = inv.PowerOff(vm)
				}
			}
		case 4:
			if len(vms) > 0 {
				i := next(len(vms))
				if inv.RemoveVM(vms[i]) == nil {
					vms = append(vms[:i], vms[i+1:]...)
				}
			}
		}
		for _, hi := range f.hosts {
			for _, lo := range f.hosts {
				if hi == lo {
					continue
				}
				got := move.Pick(inv, hi, lo)
				want := f.bal.pickMovableReference(hi, lo)
				if got != want {
					t.Fatalf("step %d: Pick(%v→%v) = %v, reference = %v",
						step, hi.ID, lo.ID, got, want)
				}
			}
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pickMovableReference is the hardcoded biggest-fit scan the default
// move policy extracted, retained for the equivalence test that pins
// policy.DefaultMove bit-for-bit: the largest-memory live VM on hi
// that fits lo without overshooting the balance (moving it must not
// make lo hotter than hi was).
func (b *Balancer) pickMovableReference(hi, lo *inventory.Host) *inventory.VM {
	inv := b.plane.Inventory()
	var best *inventory.VM
	for _, id := range hi.VMs {
		vm := inv.VM(id)
		if vm == nil || vm.State == inventory.VMDeleted {
			continue
		}
		if lo.FreeMemMB() < vm.MemMB {
			continue
		}
		if vm.State == inventory.VMPoweredOn && lo.FreeCPUMHz() < inventory.CPUReservationMHz(vm.CPUs) {
			continue
		}
		// Don't create a new hotspot.
		if float64(lo.UsedMemMB+vm.MemMB)/float64(lo.MemMB) >= memUtil(hi) {
			continue
		}
		if best == nil || vm.MemMB > best.MemMB {
			best = vm
		}
	}
	return best
}
