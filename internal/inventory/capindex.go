package inventory

import "fmt"

// capHeap is a position-tracked binary max-heap over (key desc, ID asc):
// the root is the entry with the largest key, lowest ID on ties — exactly
// the element a "most free, first wins" linear scan over creation order
// returns. The position table makes Set and Remove O(log n) and Max O(1),
// which is what turns per-deploy placement from O(entities) into
// O(log entities) at million-VM inventories.
//
// pos is indexed by entry ID: pos[id] is 1 + id's index in items, and 0
// (or an ID past the end of pos) means absent. The table grows on insert
// to cover the largest ID seen. Only hosts and datastores are members,
// and core.New creates them all before any VM, so the table spans just
// the build-time ID range, not the VM IDs that follow it.
//
// Determinism contract: keys are recomputed from the authoritative entity
// fields (never updated incrementally) before any read that follows a
// mutation, so a heap query compares the very same float64 values a
// linear scan would and returns the identical winner, ties included,
// whatever order the entries were rekeyed in.
type capHeap struct {
	items []capEntry
	pos   []int32 // entry ID → 1 + index in items; 0 = absent
}

type capEntry struct {
	key float64
	id  ID
}

func newCapHeap() *capHeap { return &capHeap{} }

// capLess reports whether a outranks b: higher key first, lower ID on
// ties. This is a total order, so the heap maximum is unique.
func capLess(a, b capEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

// Len returns the number of indexed entries.
func (h *capHeap) Len() int { return len(h.items) }

// Max returns the entry with the largest key (lowest ID on ties).
func (h *capHeap) Max() (ID, float64, bool) {
	if len(h.items) == 0 {
		return None, 0, false
	}
	return h.items[0].id, h.items[0].key, true
}

// index returns id's index in items and whether id is indexed.
func (h *capHeap) index(id ID) (int, bool) {
	if id < 0 || id >= ID(len(h.pos)) || h.pos[id] == 0 {
		return 0, false
	}
	return int(h.pos[id]) - 1, true
}

// Key returns id's current key and whether id is indexed.
func (h *capHeap) Key(id ID) (float64, bool) {
	i, ok := h.index(id)
	if !ok {
		return 0, false
	}
	return h.items[i].key, true
}

// Set inserts id with the given key, or re-keys it if already present.
// id must not be negative.
func (h *capHeap) Set(id ID, key float64) {
	if i, ok := h.index(id); ok {
		h.items[i].key = key
		h.fix(i)
		return
	}
	if n := int(id) + 1 - len(h.pos); n > 0 {
		h.pos = append(h.pos, make([]int32, n)...)
	}
	h.items = append(h.items, capEntry{key: key, id: id})
	h.up(len(h.items) - 1)
}

// Remove deletes id from the index; absent IDs are a no-op.
func (h *capHeap) Remove(id ID) {
	i, ok := h.index(id)
	if !ok {
		return
	}
	h.pos[id] = 0
	last := len(h.items) - 1
	h.items[i] = h.items[last]
	h.items = h.items[:last]
	if i < last {
		h.fix(i)
	}
}

// bestWhere returns the highest-ranked entry in capLess order whose key
// is at least minKey and that satisfies keep, walking the heap best-first
// without mutating it. The walk maintains a frontier of subtree roots;
// the best frontier entry is the best entry not yet visited (every other
// remaining entry sits below some frontier root and cannot outrank it),
// so entries are visited in exactly (key desc, ID asc) order — the order
// a "most free, first wins" linear scan ranks candidates — and the first
// accepted entry is the scan's winner. Once the frontier's best key drops
// below minKey no remaining entry fits and the walk stops.
func (h *capHeap) bestWhere(minKey float64, keep func(ID) bool) (ID, bool) {
	if len(h.items) == 0 {
		return None, false
	}
	var stack [8]int
	frontier := append(stack[:0], 0)
	for len(frontier) > 0 {
		bi := 0
		for i := 1; i < len(frontier); i++ {
			if capLess(h.items[frontier[i]], h.items[frontier[bi]]) {
				bi = i
			}
		}
		idx := frontier[bi]
		e := h.items[idx]
		if e.key < minKey {
			return None, false
		}
		if keep(e.id) {
			return e.id, true
		}
		frontier[bi] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if l := 2*idx + 1; l < len(h.items) {
			frontier = append(frontier, l)
		}
		if r := 2*idx + 2; r < len(h.items) {
			frontier = append(frontier, r)
		}
	}
	return None, false
}

// fix restores heap order after the entry at i changed: it sinks, or,
// if it does not move down, rises.
func (h *capHeap) fix(i int) {
	if h.down(i) == i {
		h.up(i)
	}
}

// place writes e at index i and records its position.
func (h *capHeap) place(i int, e capEntry) {
	h.items[i] = e
	h.pos[e.id] = int32(i + 1)
}

// up moves the entry at i toward the root. Each outranked parent drops
// into the hole, and the entry is written once, at its final index: the
// layout a swap per level would leave, since capLess is a total order.
func (h *capHeap) up(i int) {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !capLess(e, h.items[parent]) {
			break
		}
		h.place(i, h.items[parent])
		i = parent
	}
	h.place(i, e)
}

// down moves the entry at i toward the leaves the same way, and returns
// its final index.
func (h *capHeap) down(i int) int {
	e := h.items[i]
	n := len(h.items)
	for {
		best, l := i, 2*i+1
		if l >= n {
			break
		}
		be := e
		if capLess(h.items[l], be) {
			best, be = l, h.items[l]
		}
		if r := l + 1; r < n && capLess(h.items[r], be) {
			best, be = r, h.items[r]
		}
		if best == i {
			break
		}
		h.place(i, be)
		i = best
	}
	h.place(i, e)
	return i
}

// check verifies the heap order and that the position table agrees with
// items: pos[items[i].id] == i+1, and exactly Len() entries are non-zero.
func (h *capHeap) check() error {
	for i, e := range h.items {
		if i > 0 && capLess(e, h.items[(i-1)/2]) {
			return fmt.Errorf("entry %d at index %d outranks its parent", e.id, i)
		}
		if p, ok := h.index(e.id); !ok || p != i {
			return fmt.Errorf("entry %d at index %d, position table says %d (present %v)", e.id, i, p, ok)
		}
	}
	n := 0
	for _, p := range h.pos {
		if p != 0 {
			n++
		}
	}
	if n != len(h.items) {
		return fmt.Errorf("position table holds %d entries, heap holds %d", n, len(h.items))
	}
	return nil
}
