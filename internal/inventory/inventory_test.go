package inventory

import (
	"slices"
	"testing"
	"testing/quick"
)

// build returns a small installation: 1 DC, 1 cluster, 2 hosts, 2
// datastores, 1 template.
func build(t *testing.T) (*Inventory, *Cluster, []*Host, []*Datastore, *Template) {
	t.Helper()
	inv := New()
	dc := inv.AddDatacenter("dc0")
	cl := inv.AddCluster(dc, "cl0")
	h0 := inv.AddHost(cl, "h0", 20000, 65536)
	h1 := inv.AddHost(cl, "h1", 20000, 65536)
	d0 := inv.AddDatastore(dc, "ds0", 1000, 200)
	d1 := inv.AddDatastore(dc, "ds1", 1000, 200)
	tpl := inv.AddTemplate(d0, "tpl0", 20, 2048, 2)
	return inv, cl, []*Host{h0, h1}, []*Datastore{d0, d1}, tpl
}

func TestBuildAndCounts(t *testing.T) {
	inv, _, _, _, _ := build(t)
	var dcs []*Datacenter
	for id := None; id < inv.nextID; id++ {
		if dc, ok := inv.Get(id).(*Datacenter); ok {
			dcs = append(dcs, dc)
		}
	}
	if len(dcs) != 1 || len(dcs[0].Clusters) != 1 || len(inv.hosts) != 2 || len(inv.datastores) != 2 || len(inv.templates) != 1 {
		t.Fatalf("counts: %d datacenters, %d hosts, %d datastores, %d templates",
			len(dcs), len(inv.hosts), len(inv.datastores), len(inv.templates))
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateChargesDatastore(t *testing.T) {
	inv, _, _, ds, _ := build(t)
	if ds[0].UsedGB != 20 {
		t.Fatalf("ds0 used = %v, want 20 (template base disk)", ds[0].UsedGB)
	}
	_ = inv
}

func TestAddVMAccounting(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, err := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	if err != nil {
		t.Fatal(err)
	}
	if vm.State != VMProvisioning {
		t.Fatalf("state = %v", vm.State)
	}
	if hosts[0].UsedMemMB != 4096 {
		t.Fatalf("host mem = %d", hosts[0].UsedMemMB)
	}
	if ds[0].UsedGB != 60 { // 20 template + 40 VM
		t.Fatalf("ds used = %v", ds[0].UsedGB)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVMRejectsOverMemory(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	if _, err := inv.AddVM("big", hosts[0], ds[0], 2, 100000, 1); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVMRejectsOverDisk(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	if _, err := inv.AddVM("big", hosts[0], ds[0], 2, 1024, 2000); err == nil {
		t.Fatal("expected out-of-space error")
	}
}

func TestPowerCycle(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 4, 4096, 10)
	if err := inv.PowerOn(vm); err != nil {
		t.Fatal(err)
	}
	if vm.State != VMPoweredOn {
		t.Fatalf("state = %v", vm.State)
	}
	if hosts[0].UsedCPUMHz != 4*cpuMHzPerVCPU {
		t.Fatalf("cpu = %d", hosts[0].UsedCPUMHz)
	}
	if err := inv.PowerOn(vm); err == nil {
		t.Fatal("double power-on allowed")
	}
	if err := inv.PowerOff(vm); err != nil {
		t.Fatal(err)
	}
	if hosts[0].UsedCPUMHz != 0 {
		t.Fatalf("cpu after off = %d", hosts[0].UsedCPUMHz)
	}
	if err := inv.PowerOff(vm); err == nil {
		t.Fatal("double power-off allowed")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerOnRejectsCPUExhaustion(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	// Host has 20000 MHz = 40 vCPU-charges; exhaust with powered-on VMs.
	for i := 0; i < 10; i++ {
		vm, err := inv.AddVM("vm", hosts[0], ds[0], 4, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.PowerOn(vm); err != nil {
			t.Fatal(err)
		}
	}
	vm, _ := inv.AddVM("extra", hosts[0], ds[0], 4, 1024, 1)
	if err := inv.PowerOn(vm); err == nil {
		t.Fatal("expected CPU exhaustion")
	}
}

func TestRemoveVM(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	if err := inv.RemoveVM(vm); err != nil {
		t.Fatal(err)
	}
	if hosts[0].UsedMemMB != 0 || ds[0].UsedGB != 20 {
		t.Fatalf("capacity not released: mem=%d disk=%v", hosts[0].UsedMemMB, ds[0].UsedGB)
	}
	if inv.VM(vm.ID) != nil {
		t.Fatal("VM still resolvable")
	}
	if err := inv.RemoveVM(vm); err == nil {
		t.Fatal("double remove allowed")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVMRejectsPoweredOn(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	inv.PowerOn(vm)
	if err := inv.RemoveVM(vm); err == nil {
		t.Fatal("removed a powered-on VM")
	}
}

func TestMoveVMHostAndDatastore(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	inv.PowerOn(vm)
	if err := inv.MoveVM(vm, hosts[1], ds[1]); err != nil {
		t.Fatal(err)
	}
	if vm.HostID != hosts[1].ID || vm.DatastoreID != ds[1].ID {
		t.Fatal("placement not updated")
	}
	if hosts[0].UsedMemMB != 0 || hosts[0].UsedCPUMHz != 0 {
		t.Fatal("source host not released")
	}
	if hosts[1].UsedMemMB != 4096 || hosts[1].UsedCPUMHz != 2*cpuMHzPerVCPU {
		t.Fatal("target host not charged")
	}
	if ds[0].UsedGB != 20 || ds[1].UsedGB != 40 {
		t.Fatalf("datastore charges: %v %v", ds[0].UsedGB, ds[1].UsedGB)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveVMNilAxes(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	if err := inv.MoveVM(vm, nil, nil); err != nil {
		t.Fatal(err)
	}
	if vm.HostID != hosts[0].ID || vm.DatastoreID != ds[0].ID {
		t.Fatal("no-op move changed placement")
	}
}

func TestMoveVMOntoFullDatastoreMovesNothing(t *testing.T) {
	// The host axis fits and the datastore axis does not: the move must
	// fail before either axis changes.
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 4096, 40)
	if _, err := inv.AddVM("filler", hosts[1], ds[1], 1, 1024, 990); err != nil {
		t.Fatal(err)
	}
	if err := inv.MoveVM(vm, hosts[1], ds[1]); err == nil {
		t.Fatal("move onto a full datastore succeeded")
	}
	if vm.HostID != hosts[0].ID || vm.DatastoreID != ds[0].ID {
		t.Fatalf("failed move left VM on host %v, datastore %v", vm.HostID, vm.DatastoreID)
	}
	if hosts[0].UsedMemMB != 4096 || hosts[1].UsedMemMB != 1024 {
		t.Fatalf("failed move changed host memory: %d, %d", hosts[0].UsedMemMB, hosts[1].UsedMemMB)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVAppMembership(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	va := inv.AddVApp("app0", "orgA")
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 1024, 5)
	vm.VAppID = va.ID
	va.VMs = append(va.VMs, vm.ID)
	if err := inv.RemoveVApp(va); err == nil {
		t.Fatal("removed non-empty vApp")
	}
	if err := inv.RemoveVM(vm); err != nil {
		t.Fatal(err)
	}
	if len(va.VMs) != 0 {
		t.Fatal("vApp membership not cleaned up")
	}
	if err := inv.RemoveVApp(va); err != nil {
		t.Fatal(err)
	}
	if inv.VApp(va.ID) != nil {
		t.Fatal("vApp still resolvable")
	}
}

func TestSortIDs(t *testing.T) {
	ids := []ID{5, 3, 5, 1, 3}
	got := SortIDs(ids)
	want := []ID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortIDsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ids := make([]ID, len(raw))
		for i, r := range raw {
			ids[i] = ID(r % 16)
		}
		out := SortIDs(ids)
		seen := map[ID]bool{}
		var prev ID = -1
		for _, id := range out {
			if id <= prev || seen[id] {
				return false
			}
			seen[id] = true
			prev = id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndStateStrings(t *testing.T) {
	if KindVM.String() != "vm" || KindDatastore.String() != "datastore" {
		t.Fatal("kind names wrong")
	}
	if VMPoweredOn.String() != "poweredOn" {
		t.Fatal("state names wrong")
	}
	if Kind(99).String() == "" || VMState(99).String() == "" {
		t.Fatal("unknown enums must still stringify")
	}
}

// Property: any sequence of add/power/remove operations that the API
// accepts leaves the inventory invariant-clean.
func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	f := func(script []uint8) bool {
		inv := New()
		dc := inv.AddDatacenter("dc")
		cl := inv.AddCluster(dc, "cl")
		h := inv.AddHost(cl, "h", 40000, 32768)
		d := inv.AddDatastore(dc, "d", 500, 100)
		var vms []*VM
		for _, b := range script {
			switch b % 4 {
			case 0:
				if vm, err := inv.AddVM("vm", h, d, 1+int(b%4), 1024, float64(1+b%8)); err == nil {
					vms = append(vms, vm)
				}
			case 1:
				if len(vms) > 0 {
					inv.PowerOn(vms[int(b)%len(vms)])
				}
			case 2:
				if len(vms) > 0 {
					inv.PowerOff(vms[int(b)%len(vms)])
				}
			case 3:
				if len(vms) > 0 {
					i := int(b) % len(vms)
					if err := inv.RemoveVM(vms[i]); err == nil {
						vms = append(vms[:i], vms[i+1:]...)
					}
				}
			}
			if inv.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendResumeLifecycle(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 4, 4096, 10)
	if err := inv.Suspend(vm, 4); err == nil {
		t.Fatal("suspend of non-running VM succeeded")
	}
	inv.PowerOn(vm)
	cpuBefore := hosts[0].UsedCPUMHz
	diskBefore := ds[0].UsedGB
	if err := inv.Suspend(vm, 4); err != nil {
		t.Fatal(err)
	}
	if vm.State != VMSuspended || vm.SuspendGB != 4 {
		t.Fatalf("state=%v suspendGB=%v", vm.State, vm.SuspendGB)
	}
	if hosts[0].UsedCPUMHz != cpuBefore-4*cpuMHzPerVCPU {
		t.Fatal("CPU not released")
	}
	if ds[0].UsedGB != diskBefore+4 {
		t.Fatal("suspend file not charged")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// PowerOn of a suspended VM is rejected (must Resume).
	if err := inv.PowerOn(vm); err == nil {
		t.Fatal("powerOn of suspended VM succeeded")
	}
	if err := inv.Resume(vm); err != nil {
		t.Fatal(err)
	}
	if vm.State != VMPoweredOn || vm.SuspendGB != 0 {
		t.Fatalf("after resume state=%v suspendGB=%v", vm.State, vm.SuspendGB)
	}
	if ds[0].UsedGB != diskBefore {
		t.Fatal("suspend file not reclaimed")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerOffSuspendedDiscardsCheckpoint(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 2048, 10)
	inv.PowerOn(vm)
	diskBefore := ds[0].UsedGB
	inv.Suspend(vm, 2)
	if err := inv.PowerOff(vm); err != nil {
		t.Fatal(err)
	}
	if vm.State != VMPoweredOff || vm.SuspendGB != 0 || ds[0].UsedGB != diskBefore {
		t.Fatalf("checkpoint not discarded: %v %v %v", vm.State, vm.SuspendGB, ds[0].UsedGB)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendRejectsFullDatastore(t *testing.T) {
	inv, _, hosts, ds, _ := build(t)
	vm, _ := inv.AddVM("vm0", hosts[0], ds[0], 2, 2048, 10)
	inv.PowerOn(vm)
	inv.AddTemplate(ds[0], "filler", ds[0].FreeGB()-0.5, 1024, 1)
	if err := inv.Suspend(vm, 2); err == nil {
		t.Fatal("suspend succeeded on full datastore")
	}
	if vm.State != VMPoweredOn {
		t.Fatal("state changed despite failure")
	}
}

// TestRemoveIDMatchesFrontScan pins removeID's back-to-front scan to the
// front-to-back scan it replaced: with unique IDs both remove the same
// element and keep the rest in order.
func TestRemoveIDMatchesFrontScan(t *testing.T) {
	frontScan := func(ids []ID, id ID) []ID {
		for i, v := range ids {
			if v == id {
				return append(ids[:i], ids[i+1:]...)
			}
		}
		return ids
	}
	list := []ID{7, 3, 11, 5, 2}
	for _, tc := range []struct {
		name string
		id   ID
		want []ID
	}{
		{"first", 7, []ID{3, 11, 5, 2}},
		{"middle", 11, []ID{7, 3, 5, 2}},
		{"last", 2, []ID{7, 3, 11, 5}},
		{"missing", 9, []ID{7, 3, 11, 5, 2}},
	} {
		got := removeID(slices.Clone(list), tc.id)
		ref := frontScan(slices.Clone(list), tc.id)
		if !slices.Equal(got, tc.want) || !slices.Equal(got, ref) {
			t.Errorf("%s: removeID(%v, %d) = %v, front scan %v, want %v",
				tc.name, list, tc.id, got, ref, tc.want)
		}
	}
	if got := removeID(nil, 1); len(got) != 0 {
		t.Errorf("removeID(nil, 1) = %v", got)
	}
}
