package inventory

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// referenceBestHost is the O(hosts) scan BestHost replaced: most free
// memory wins, first host in creation order wins ties (strict >).
func referenceBestHost(inv *Inventory, memMB int) *Host {
	var best *Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// referenceBestDatastore is the O(datastores) scan BestDatastore
// replaced, net of reservations.
func referenceBestDatastore(inv *Inventory, needGB float64) *Datastore {
	var best *Datastore
	for _, id := range inv.Datastores() {
		d := inv.Datastore(id)
		if inv.EffectiveFreeGB(d) < needGB {
			continue
		}
		if best == nil || inv.EffectiveFreeGB(d) > inv.EffectiveFreeGB(best) {
			best = d
		}
	}
	return best
}

func TestCapHeapOrdering(t *testing.T) {
	h := newCapHeap()
	h.Set(ID(3), 10)
	h.Set(ID(1), 10) // same key, lower ID: must win the tie
	h.Set(ID(2), 30)
	if id, key, ok := h.Max(); !ok || id != 2 || key != 30 {
		t.Fatalf("max = (%v, %v, %v), want (2, 30, true)", id, key, ok)
	}
	h.Remove(ID(2))
	if id, key, ok := h.Max(); !ok || id != 1 || key != 10 {
		t.Fatalf("after remove, max = (%v, %v, %v), want (1, 10, true)", id, key, ok)
	}
	h.Set(ID(3), 99) // rekey up
	if id, _, _ := h.Max(); id != 3 {
		t.Fatalf("after rekey, max id = %v, want 3", id)
	}
	h.Remove(ID(3))
	h.Remove(ID(1))
	if _, _, ok := h.Max(); ok || h.Len() != 0 {
		t.Fatal("heap not empty after removing everything")
	}
}

func TestCapHeapMatchesScanUnderRandomOps(t *testing.T) {
	// Property: after any Set/Remove sequence, Max equals a linear scan
	// under the (key desc, ID asc) order.
	f := func(script []uint16) bool {
		h := newCapHeap()
		keys := map[ID]float64{}
		for _, op := range script {
			id := ID(op % 16)
			if op%3 == 0 {
				h.Remove(id)
				delete(keys, id)
			} else {
				k := float64(op % 7) // few distinct keys force ties
				h.Set(id, k)
				keys[id] = k
			}
			var bestID ID
			bestKey, found := 0.0, false
			for id, k := range keys {
				if !found || k > bestKey || (k == bestKey && id < bestID) {
					bestID, bestKey, found = id, k, true
				}
			}
			gotID, gotKey, ok := h.Max()
			if ok != found || (found && (gotID != bestID || gotKey != bestKey)) {
				return false
			}
			if h.Len() != len(keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBestHostMatchesReferenceScan(t *testing.T) {
	// Deterministic pseudo-random churn: each step applies 0–4 mutations
	// (VM adds, removes, moves and snapshots, power and suspend,
	// maintenance and failure toggles, group moves, reservations), so
	// stale keys pile up before the queries. The index must then agree
	// with the scans exactly — including float equality.
	c := newChurn(8, 40000, 65536, 4, 2000, 3)
	inv, next := c.inv, lcg(0x9e3779b97f4a7c15)
	for step := 0; step < 2000; step++ {
		c.mutate(next)
		memMB := 1024 * (1 + next(8))
		if got, want := inv.BestHost(memMB), referenceBestHost(inv, memMB); got != want {
			t.Fatalf("step %d: BestHost(%d) = %v, scan = %v", step, memMB, got, want)
		}
		needGB := float64(1 + next(40))
		if got, want := inv.BestDatastore(needGB), referenceBestDatastore(inv, needGB); got != want {
			t.Fatalf("step %d: BestDatastore(%v) = %v, scan = %v", step, needGB, got, want)
		}
		if step%100 == 0 {
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBestHostInGroupMatchesReferenceScan(t *testing.T) {
	const groups = 3
	c := newChurn(9, 40000, 65536, 2, 10000, groups)
	inv, next := c.inv, lcg(7)
	for step := 0; step < 1000; step++ {
		c.mutate(next)
		group, memMB := next(groups), 2048*(1+next(6))
		if got, want := inv.BestHostInGroup(group, memMB), referenceBestHostInGroup(inv, group, memMB); got != want {
			t.Fatalf("step %d: BestHostInGroup(%d, %d) = %v, scan = %v", step, group, memMB, got, want)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVMKeepsEnumerationOrder(t *testing.T) {
	// RemoveVM deletes in O(1) via tombstoning; VMs() must still
	// enumerate survivors in creation order — the order every artifact
	// and CheckInvariants walk depends on.
	inv, _, hosts, ds, _ := build(t)
	var created []*VM
	for i := 0; i < 10; i++ {
		vm, err := inv.AddVM("vm", hosts[i%2], ds[i%2], 1, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, vm)
	}
	// Remove from the middle, front, and back.
	for _, i := range []int{4, 0, 9, 5} {
		if err := inv.RemoveVM(created[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := []ID{created[1].ID, created[2].ID, created[3].ID, created[6].ID, created[7].ID, created[8].ID}
	got := inv.VMs()
	if len(got) != len(want) {
		t.Fatalf("VMs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VMs()[%d] = %v, want %v (creation order violated)", i, got[i], want[i])
		}
	}
	if n := len(inv.vms) - inv.vmHoles; n != 6 {
		t.Fatalf("live VMs = %d, want 6", n)
	}
	// Enumeration stays stable across the compaction VMs() performed.
	again := inv.VMs()
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("second VMs()[%d] = %v, want %v", i, again[i], want[i])
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// New VMs append after survivors.
	vm, err := inv.AddVM("tail", hosts[0], ds[0], 1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := inv.VMs()
	if ids[len(ids)-1] != vm.ID {
		t.Fatalf("new VM not at tail: %v", ids)
	}
}

func TestRemoveVAppKeepsEnumerationOrder(t *testing.T) {
	// The vApp twin of TestRemoveVMKeepsEnumerationOrder: removal
	// tombstones the vApp's slot, and VApps() compacts survivors in
	// creation order.
	inv := New()
	var created []*VApp
	for i := 0; i < 10; i++ {
		created = append(created, inv.AddVApp("app", "org"))
	}
	for _, i := range []int{4, 0, 9, 5} {
		if err := inv.RemoveVApp(created[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := []ID{created[1].ID, created[2].ID, created[3].ID, created[6].ID, created[7].ID, created[8].ID}
	if got := inv.VApps(); !slices.Equal(got, want) {
		t.Fatalf("VApps() = %v, want %v (creation order violated)", got, want)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tail := inv.AddVApp("tail", "org")
	if err := inv.RemoveVApp(created[2]); err != nil {
		t.Fatal(err)
	}
	want = []ID{created[1].ID, created[3].ID, created[6].ID, created[7].ID, created[8].ID, tail.ID}
	if got := inv.VApps(); !slices.Equal(got, want) {
		t.Fatalf("VApps() after add and remove = %v, want %v", got, want)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVAppTwiceIsNoOp(t *testing.T) {
	// After compaction A's old slot belongs to B; a second removal of A
	// must not tombstone it.
	inv := New()
	a, b := inv.AddVApp("a", "org"), inv.AddVApp("b", "org")
	if err := inv.RemoveVApp(a); err != nil {
		t.Fatal(err)
	}
	if got := inv.VApps(); !slices.Equal(got, []ID{b.ID}) {
		t.Fatalf("VApps() = %v, want [%v]", got, b.ID)
	}
	slot, holes := b.slot, inv.vappHoles
	if err := inv.RemoveVApp(a); err != nil {
		t.Fatal(err)
	}
	if b.slot != slot || inv.vappHoles != holes {
		t.Fatalf("second removal moved B's slot %d → %d, tombstones %d → %d", slot, b.slot, holes, inv.vappHoles)
	}
	if got := inv.VApps(); !slices.Equal(got, []ID{b.ID}) {
		t.Fatalf("VApps() after second removal = %v, want [%v]", got, b.ID)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzCapHeap decodes the input into Set, Remove, Max and bestWhere calls
// over 64 IDs, 16 of them far above the rest, and compares every answer
// with a linear (key desc, ID asc) scan of a reference map.
func FuzzCapHeap(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 3, 0, 60, 7, 2, 0, 0, 1, 2, 0, 3, 4, 9})
	f.Add([]byte{0, 63, 1, 0, 0, 1, 0, 48, 1, 3, 1, 5, 1, 63, 0, 2, 0, 0})
	f.Add([]byte{0, 5, 2, 0, 6, 2, 0, 7, 2, 0, 8, 2, 1, 6, 0, 0, 5, 9, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newCapHeap()
		ref := map[ID]float64{}
		// best is the scan's answer among entries with key >= minKey
		// that keep accepts.
		best := func(minKey float64, keep func(ID) bool) (ID, float64, bool) {
			var bid ID
			var bkey float64
			found := false
			for id, k := range ref {
				if k < minKey || !keep(id) {
					continue
				}
				if !found || k > bkey || (k == bkey && id < bid) {
					bid, bkey, found = id, k, true
				}
			}
			return bid, bkey, found
		}
		for ; len(data) >= 3; data = data[3:] {
			id := ID(data[1] % 64)
			if id >= 48 {
				id <<= 8
			}
			arg := data[2]
			switch data[0] % 4 {
			case 0:
				h.Set(id, float64(arg%8)) // few distinct keys force ties
				ref[id] = float64(arg % 8)
			case 1:
				h.Remove(id)
				delete(ref, id)
			case 2:
				gotID, gotKey, ok := h.Max()
				wantID, wantKey, found := best(0, func(ID) bool { return true })
				if ok != found || gotID != wantID || gotKey != wantKey {
					t.Fatalf("Max() = (%v, %v, %v), scan = (%v, %v, %v)", gotID, gotKey, ok, wantID, wantKey, found)
				}
			case 3:
				minKey := float64(arg % 8)
				salt := ID(arg / 8)
				keep := func(id ID) bool { return (id+salt)%3 != 0 }
				got, ok := h.bestWhere(minKey, keep)
				want, _, found := best(minKey, keep)
				if ok != found || got != want {
					t.Fatalf("bestWhere(%v) = (%v, %v), scan = (%v, %v)", minKey, got, ok, want, found)
				}
			}
			k, ok := h.Key(id)
			if want, present := ref[id]; ok != present || k != want {
				t.Fatalf("Key(%v) = (%v, %v), reference (%v, %v)", id, k, ok, want, present)
			}
			if h.Len() != len(ref) {
				t.Fatalf("Len() = %d, reference holds %d", h.Len(), len(ref))
			}
			if err := h.check(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestSetHostGroupMovesBetweenGroupHeaps(t *testing.T) {
	inv := New()
	dc := inv.AddDatacenter("dc")
	cl := inv.AddCluster(dc, "cl")
	h0 := inv.AddHost(cl, "h0", 40000, 65536)
	h1 := inv.AddHost(cl, "h1", 40000, 32768)
	inv.SetHostGroup(h0.ID, 0)
	inv.SetHostGroup(h1.ID, 1)
	if got := inv.BestHostInGroup(0, 1024); got != h0 {
		t.Fatalf("group 0 best = %v, want h0", got)
	}
	if got := inv.BestHostInGroup(1, 1024); got != h1 {
		t.Fatalf("group 1 best = %v, want h1", got)
	}
	inv.SetHostGroup(h0.ID, 1)
	if got := inv.BestHostInGroup(0, 1024); got != nil {
		t.Fatalf("group 0 best after move = %v, want nil", got)
	}
	if got := inv.BestHostInGroup(1, 1024); got != h0 {
		t.Fatalf("group 1 best after move = %v, want h0 (more free memory)", got)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEntitySlotsKeepSizeClass(t *testing.T) {
	// The slot fields must not push VM or VApp into a larger allocation
	// size class (128 B and 80 B on 64-bit platforms).
	if n := unsafe.Sizeof(VM{}); n > 128 {
		t.Errorf("VM is %d B, want at most 128", n)
	}
	if n := unsafe.Sizeof(VApp{}); n > 80 {
		t.Errorf("VApp is %d B, want at most 80", n)
	}
}
