package ha

import (
	"testing"

	"cloudmcp/internal/inventory"
)

// TestPickTargetMatchesLinearReferenceFuzz pins the default failover
// policy (index-backed BestHostExcluding) to the retained linear
// reference scan — the pre-extraction ha.pickTarget — bit-for-bit
// under deterministic churn, including hosts near the CPU-reservation
// limit.
func TestPickTargetMatchesLinearReferenceFuzz(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	inv := f.inv
	ds := f.ds
	var vms []*inventory.VM
	state := uint64(0xabcd)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for step := 0; step < 3000; step++ {
		switch next(6) {
		case 0, 1:
			h := f.hosts[next(len(f.hosts))]
			if vm, err := inv.AddVM("vm", h, ds, 1+next(4), 4096*(1+next(6)), 1); err == nil {
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
				i := next(len(vms))
				if inv.RemoveVM(vms[i]) == nil {
					vms = append(vms[:i], vms[i+1:]...)
				}
			}
		case 4:
			h := f.hosts[next(len(f.hosts))]
			inv.SetHostMaintenance(h, !h.Maintenance)
		case 5:
			h := f.hosts[next(len(f.hosts))]
			inv.SetHostFailed(h, !h.Failed)
		}
		if len(vms) == 0 {
			continue
		}
		vm := vms[next(len(vms))]
		if got, want := f.eng.pickTarget(vm), f.eng.pickTargetLinear(vm); got != want {
			t.Fatalf("step %d: pickTarget = %v, linear = %v", step, got, want)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pickTargetLinear is the pre-index reference scan, retained for the
// equivalence test that pins the default policy bit-for-bit.
func (e *Engine) pickTargetLinear(vm *inventory.VM) *inventory.Host {
	inv := e.pl.Inventory()
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		if id == vm.HostID {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < vm.MemMB || h.FreeCPUMHz() < inventory.CPUReservationMHz(vm.CPUs) {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}
