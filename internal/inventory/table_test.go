package inventory

import "testing"

// checkPages verifies the table's page bookkeeping, with next the next ID
// to allocate: every page held holds a live entry or is the tail page
// (the one next falls in), each live count matches its page, and the free
// list stays within its bound and holds only cleared pages.
func checkPages(t *testing.T, tab *entityTable, next ID) {
	t.Helper()
	if len(tab.live) != len(tab.pages) {
		t.Fatalf("%d live counts for %d pages", len(tab.live), len(tab.pages))
	}
	for p, pg := range tab.pages {
		if pg == nil {
			continue
		}
		n := 0
		for _, e := range pg {
			if e != nil {
				n++
			}
		}
		if n != int(tab.live[p]) {
			t.Fatalf("page %d holds %d entries, live count %d", p, n, tab.live[p])
		}
		if n == 0 && ID(p) != next>>pageBits {
			t.Fatalf("page %d is empty and not the tail page (next ID %d)", p, next)
		}
	}
	if len(tab.free) > maxFree {
		t.Fatalf("free list holds %d pages, bound %d", len(tab.free), maxFree)
	}
	for _, pg := range tab.free {
		if *pg != ([pageSize]any{}) {
			t.Fatal("free list holds a page with entries")
		}
	}
}

// heldPages counts the pages the table keeps: in the directory and on
// the free list.
func heldPages(tab *entityTable) int {
	n := len(tab.free)
	for _, pg := range tab.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// FuzzEntityTable decodes the input into adds, removes, lookups and
// directory growth on an entityTable, allocating IDs densely from 1 the
// way Inventory does, and checks every lookup against a map, including
// negative IDs, None, IDs past the end and IDs in dropped pages.
func FuzzEntityTable(f *testing.F) {
	f.Add([]byte{1, 40, 2, 0, 2, 0, 2, 0, 3, 9, 4, 200, 1, 30, 2, 5})
	f.Add([]byte{1, 19, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 0, 0})
	f.Add([]byte{0, 0, 2, 0, 3, 0, 3, 8, 3, 9, 3, 255, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab entityTable
		ref := map[ID]any{}
		var live []ID
		next := ID(1)
		for ; len(data) >= 2; data = data[2:] {
			arg := int(data[1])
			switch data[0] % 5 {
			case 0, 1: // add 1 or up to 20 entities
				n := 1
				if data[0]%5 == 1 {
					n = arg % 20
				}
				for ; n > 0; n-- {
					e := &Entity{ID: next}
					tab.put(next, e)
					ref[next] = e
					live = append(live, next)
					next++
				}
			case 2:
				if len(live) > 0 {
					i := arg % len(live)
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					tab.remove(id, next)
					delete(ref, id)
				}
			case 3:
				id := ID(arg) - 8
				if got, want := tab.get(id), ref[id]; got != want {
					t.Fatalf("get(%d) = %v, want %v", id, got, want)
				}
			case 4:
				tab.grow(next + ID(arg))
			}
			checkPages(t, &tab, next)
		}
		for id := ID(-pageSize); id < next+2*pageSize; id++ {
			if got, want := tab.get(id), ref[id]; got != want {
				t.Fatalf("get(%d) = %v, want %v", id, got, want)
			}
		}
	})
}

// TestEntityTableBoundedUnderChurn runs 10^5 AddVM/RemoveVM cycles with
// at most 64 VMs live. The pages held must stay within the build's pages
// plus one page per live VM and the tail and free-list pages, however
// many IDs the cycles use up, and a VM that outlives the churn must pin
// only its own page.
func TestEntityTableBoundedUnderChurn(t *testing.T) {
	const cycles, maxLive = 100_000, 64
	c := newChurn(4, 1<<20, 1<<20, 2, 1e6, 0)
	inv := c.inv
	built := heldPages(&inv.entities)
	bound := built + maxLive + 1 + maxFree
	next := lcg(43)
	var live []*VM
	var keeper *VM
	for i := 0; i < cycles; i++ {
		vm, err := inv.AddVM("vm", c.hosts[i%4], c.dss[i%2], 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == cycles/2 {
			keeper = vm
		} else {
			live = append(live, vm)
		}
		if len(live) > maxLive {
			j := next(len(live))
			if err := inv.RemoveVM(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		if held := heldPages(&inv.entities); held > bound+1 {
			t.Fatalf("cycle %d: %d pages held, want at most %d", i, held, bound+1)
		}
	}
	checkPages(t, &inv.entities, inv.nextID)
	p := keeper.ID >> pageBits
	if inv.VM(keeper.ID) != keeper || inv.entities.live[p] != 1 {
		t.Fatalf("long-lived VM %d: resolves to %v, its page holds %d entries", keeper.ID, inv.VM(keeper.ID), inv.entities.live[p])
	}
	if inv.entities.pages[p-1] != nil || inv.entities.pages[p+1] != nil {
		t.Fatalf("long-lived VM %d pins a neighbouring page", keeper.ID)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
