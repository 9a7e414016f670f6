package inventory

import "testing"

// referenceBestHostExcluding is the O(hosts) scan BestHostExcluding
// replaces: skip one host, require in-service with enough free memory
// (and free CPU when cpuMHz > 0), most free memory wins, first host in
// creation order wins ties (strict >) — the exact shape of the old
// ha.pickTarget / workload pickMigrationTarget / pickOtherHost loops.
func referenceBestHostExcluding(inv *Inventory, exclude ID, memMB, cpuMHz int) *Host {
	var best *Host
	for _, id := range inv.Hosts() {
		if id == exclude {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if cpuMHz > 0 && h.FreeCPUMHz() < cpuMHz {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

func TestCPUReservationMHz(t *testing.T) {
	// The shared constant every picker must agree on: 500 MHz per vCPU.
	for cpus := 0; cpus <= 8; cpus++ {
		if got := CPUReservationMHz(cpus); got != cpus*500 {
			t.Fatalf("CPUReservationMHz(%d) = %d, want %d", cpus, got, cpus*500)
		}
	}
}

func TestBestHostExcludingMatchesReferenceScan(t *testing.T) {
	// Deterministic churn, 0–4 mutations per step: powered-on VMs consume
	// CPU reservation too, so the CPU filter is exercised against hosts
	// near both limits.
	c := newChurn(8, 8000, 65536, 2, 4000, 2)
	inv, next := c.inv, lcg(0x51ed2701)
	for step := 0; step < 3000; step++ {
		c.mutate(next)
		exclude := c.hosts[next(len(c.hosts))].ID
		memMB := 1024 * (1 + next(8))
		cpuMHz := 0
		if next(2) == 0 {
			cpuMHz = CPUReservationMHz(1 + next(4))
		}
		got := inv.BestHostExcluding(exclude, memMB, cpuMHz)
		want := referenceBestHostExcluding(inv, exclude, memMB, cpuMHz)
		if got != want {
			t.Fatalf("step %d: BestHostExcluding(%v, %d, %d) = %v, scan = %v",
				step, exclude, memMB, cpuMHz, got, want)
		}
		if step%250 == 0 {
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
