package workload

import (
	"fmt"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// TestPickersMatchLinearReferenceFuzz pins the index-backed migration
// pickers (replay.pickMigrationTarget, workload.pickOtherHost) to
// their retained linear reference scans under deterministic churn —
// the same bit-for-bit contract the placement equivalence suite pins
// for clouddir.
func TestPickersMatchLinearReferenceFuzz(t *testing.T) {
	r := newRig(t, 1, clouddir.DefaultConfig())
	inv := r.inv
	hosts := make([]*inventory.Host, 0, 16)
	for _, id := range inv.Hosts() {
		hosts = append(hosts, inv.Host(id))
	}
	ds := inv.Datastore(inv.Datastores()[0])
	gen := &Generator{dir: r.dir}
	rep := &Replayer{dir: r.dir}

	var vms []*inventory.VM
	state := uint64(0xfeed)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for step := 0; step < 3000; step++ {
		switch next(6) {
		case 0, 1:
			h := hosts[next(len(hosts))]
			if vm, err := inv.AddVM("vm", h, ds, 1+next(4), 4096*(1+next(8)), 1); err == nil {
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
			h := hosts[next(len(hosts))]
			inv.SetHostMaintenance(h, !h.Maintenance)
		case 5:
			h := hosts[next(len(hosts))]
			inv.SetHostFailed(h, !h.Failed)
		}
		if len(vms) == 0 {
			continue
		}
		vm := vms[next(len(vms))]
		if got, want := rep.pickMigrationTarget(vm), rep.pickMigrationTargetLinear(vm); got != want {
			t.Fatalf("step %d: pickMigrationTarget = %v, linear = %v", step, got, want)
		}
		if got, want := gen.pickOtherHost(vm), gen.pickOtherHostLinear(vm); got != want {
			t.Fatalf("step %d: pickOtherHost = %v, linear = %v", step, got, want)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pickOtherHostLinear is the pre-index reference scan for pickOtherHost.
func (g *Generator) pickOtherHostLinear(vm *inventory.VM) *inventory.Host {
	inv := g.dir.Plane().Inventory()
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		if id == vm.HostID {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < vm.MemMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// pickMigrationTargetLinear is the pre-index reference scan, retained
// for the equivalence test that pins pickMigrationTarget bit-for-bit.
func (r *Replayer) pickMigrationTargetLinear(vm *inventory.VM) *inventory.Host {
	inv := r.dir.Plane().Inventory()
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		if id == vm.HostID {
			continue
		}
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < vm.MemMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// TestPickVMPrunesDeadVAppsInPlace deletes vApps mid-ring and asserts
// pickVM drops the dead IDs from the ring (bounding its cost) while
// still round-robining over the survivors in order.
func TestPickVMPrunesDeadVAppsInPlace(t *testing.T) {
	r := newRig(t, 2, clouddir.DefaultConfig())
	rep := &Replayer{
		dir:   r.dir,
		vapps: make(map[string][]inventory.ID),
		rrIdx: make(map[string]int),
	}
	const org = "org0"
	inv := r.inv
	tpl := inv.Template(inv.Templates()[0])

	// Deploy 8 single-VM vApps into the org's ring.
	var vapps []*inventory.VApp
	deploy := func() {
		r.env.Go("deploy", func(p *sim.Proc) {
			res := r.dir.DeployVApp(p, org, tpl, 1, true)
			if res.Err != nil {
				t.Errorf("deploy: %v", res.Err)
				return
			}
			vapps = append(vapps, res.VApp)
			rep.vapps[org] = append(rep.vapps[org], res.VApp.ID)
		})
	}
	for i := 0; i < 8; i++ {
		deploy()
	}
	r.env.Run(sim.Forever)
	if len(rep.vapps[org]) != 8 {
		t.Fatalf("ring size = %d, want 8", len(rep.vapps[org]))
	}

	// Kill vApps 1, 3, and 4 mid-ring (not the front — popVApp's case).
	for _, i := range []int{1, 3, 4} {
		va := vapps[i]
		r.env.Go(fmt.Sprintf("kill%d", i), func(p *sim.Proc) {
			r.dir.DeleteVApp(p, va, org)
		})
	}
	r.env.Run(sim.Forever)

	// One full round of picks visits every live vApp exactly once, in
	// ring order, and prunes all three dead entries as it encounters
	// them: afterwards the ring holds only the 5 survivors.
	wantOrder := []int{0, 2, 5, 6, 7}
	for round := 0; round < 3; round++ {
		for _, i := range wantOrder {
			got := rep.pickVM(org)
			want := vapps[i].VMs[0]
			if got != want {
				t.Fatalf("round %d: pickVM = %v, want vApp %d's VM %v (ring %v)",
					round, got, i, want, rep.vapps[org])
			}
		}
	}
	if got := len(rep.vapps[org]); got != 5 {
		t.Fatalf("ring size after pruning = %d, want 5", got)
	}
	for _, id := range rep.vapps[org] {
		if inv.VApp(id) == nil {
			t.Fatalf("dead vApp %v left in ring %v", id, rep.vapps[org])
		}
	}
}
