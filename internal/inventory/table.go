package inventory

import "slices"

// pageBits sets the entity table's page size: 16 entries, 256 B on 64-bit
// platforms. A page that one long-lived entity pins holds 15 empty slots,
// so small pages keep churn (IDs allocated and removed by the thousand,
// a few entities left behind) from pinning much memory.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	maxFree  = 8 // dropped pages kept for reuse
)

// entityTable maps an ID to its entity through a directory of fixed-size
// pages indexed by id>>pageBits. IDs are dense and never reused, so a
// lookup is two indexed loads where a hash map would probe a table too
// big for cache, and a page whose IDs have all been allocated and
// removed can never fill again: remove drops it.
type entityTable struct {
	pages []*[pageSize]any
	live  []uint8 // live entries per page
	free  []*[pageSize]any
}

// get returns the entity with id, or nil for an ID that is negative,
// past the directory, in a dropped page or removed.
func (t *entityTable) get(id ID) any {
	p := uint64(id) >> pageBits
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		return nil
	}
	return t.pages[p][id&(pageSize-1)]
}

// put stores e under id, which must be the most recently allocated ID.
func (t *entityTable) put(id ID, e any) {
	p := int(id >> pageBits)
	for len(t.pages) <= p {
		t.pages = append(t.pages, nil)
		t.live = append(t.live, 0)
	}
	if t.pages[p] == nil {
		if n := len(t.free); n > 0 {
			t.pages[p], t.free = t.free[n-1], t.free[:n-1]
		} else {
			t.pages[p] = new([pageSize]any)
		}
	}
	t.pages[p][id&(pageSize-1)] = e
	t.live[p]++
}

// remove clears id's slot. Once its page holds no entity and next (the
// next ID to allocate) has passed the page, the page is dropped, and kept
// for reuse while the free list has room.
func (t *entityTable) remove(id, next ID) {
	p := int(id >> pageBits)
	pg := t.pages[p]
	pg[id&(pageSize-1)] = nil
	if t.live[p]--; t.live[p] == 0 && ID(p+1)<<pageBits <= next {
		t.pages[p] = nil
		if len(t.free) < maxFree {
			t.free = append(t.free, pg)
		}
	}
}

// grow sizes the directory for IDs below n.
func (t *entityTable) grow(n ID) {
	if k := int(n>>pageBits) + 1 - len(t.pages); k > 0 {
		t.pages = slices.Grow(t.pages, k)
		t.live = slices.Grow(t.live, k)
	}
}
