package inventory

import "testing"

// churn applies the mutations that move free-capacity keys, through the
// Inventory's exported methods, to a fixed set of hosts and datastores.
// Tests apply several between two queries, so stale keys pile up the way
// they do between placements.
type churn struct {
	inv    *Inventory
	hosts  []*Host
	dss    []*Datastore
	vms    []*VM
	gone   []*VM // VMs RemoveVM deleted
	groups int   // placement groups SetHostGroup moves hosts between
}

// newChurn builds one cluster of hosts (cpuMHz, memMB each) and
// datastores (capGB each), spreading the hosts over groups placement
// groups when groups > 0.
func newChurn(hosts, cpuMHz, memMB, dss int, capGB float64, groups int) *churn {
	c := &churn{inv: New(), groups: groups}
	dc := c.inv.AddDatacenter("dc")
	cl := c.inv.AddCluster(dc, "cl")
	for i := 0; i < hosts; i++ {
		h := c.inv.AddHost(cl, "h", cpuMHz, memMB)
		if groups > 0 {
			c.inv.SetHostGroup(h.ID, i*groups/hosts)
		}
		c.hosts = append(c.hosts, h)
	}
	for i := 0; i < dss; i++ {
		c.dss = append(c.dss, c.inv.AddDatastore(dc, "d", capGB, 100))
	}
	return c
}

// churnOps is the number of distinct values apply's op selects from.
const churnOps = 14

// apply performs mutation op (mod churnOps) on the host, datastore or VM
// that x and y select. A mutation the inventory refuses (no room, wrong
// power state) changes nothing and is not an error here.
func (c *churn) apply(op, x, y int) {
	inv := c.inv
	h, d := c.hosts[x%len(c.hosts)], c.dss[y%len(c.dss)]
	var vm *VM
	if len(c.vms) > 0 {
		vm = c.vms[x%len(c.vms)]
	}
	switch op % churnOps {
	case 0, 1, 2:
		if vm, err := inv.AddVM("vm", h, d, 1+y%4, 1024*(1+(x+y)%4), float64(1+y%20)); err == nil {
			c.vms = append(c.vms, vm)
		}
	case 3, 4:
		if vm != nil && inv.RemoveVM(vm) == nil {
			i := x % len(c.vms)
			c.vms = append(c.vms[:i], c.vms[i+1:]...)
			c.gone = append(c.gone, vm)
		}
	case 5:
		if vm != nil && vm.State == VMPoweredOn {
			_ = inv.PowerOff(vm)
		} else if vm != nil {
			_ = inv.PowerOn(vm)
		}
	case 6:
		if vm != nil && vm.State == VMSuspended {
			_ = inv.Resume(vm)
		} else if vm != nil && vm.State == VMPoweredOn {
			_ = inv.Suspend(vm, float64(1+y%4))
		}
	case 7:
		inv.SetHostMaintenance(h, !h.Maintenance)
	case 8:
		inv.SetHostFailed(h, !h.Failed)
	case 9:
		if y%2 == 0 {
			inv.Reserve(d.ID, float64(y%50))
		} else if r := d.reservedGB; r > 0 {
			inv.Reserve(d.ID, -r)
		}
	case 10:
		// A snapshot grows the VM's disk on its datastore; removing one
		// shrinks it. Charging the VM keeps CheckInvariants' space sums.
		if vm == nil {
			return
		}
		vd, gb := inv.Datastore(vm.DatastoreID), float64(1+y%8)
		if y%2 == 0 && vd.FreeGB() >= gb {
			vm.DiskGB += gb
			inv.AddDatastoreUsed(vd, gb)
		} else if y%2 == 1 && vm.DiskGB-vm.SuspendGB >= gb {
			vm.DiskGB -= gb
			inv.AddDatastoreUsed(vd, -gb)
		}
	case 11:
		if c.groups > 0 {
			inv.SetHostGroup(h.ID, y%c.groups)
		}
	case 12:
		if vm != nil {
			_ = inv.MoveVM(vm, c.hosts[y%len(c.hosts)], nil)
		}
	case 13:
		if vm != nil {
			var to *Host
			if y%2 == 0 {
				to = c.hosts[(x+y)%len(c.hosts)]
			}
			_ = inv.MoveVM(vm, to, d)
		}
	}
}

// mutate applies 0–4 mutations drawn from next. Half the time a mutation
// keeps the previous one's selectors, so it lands on the same host,
// datastore and VM, and one entity goes stale more than once before a
// query rekeys it.
func (c *churn) mutate(next func(int) int) {
	x, y := next(1024), next(1024)
	for k := next(5); k > 0; k-- {
		c.apply(next(churnOps), x, y)
		if next(2) == 0 {
			x, y = next(1024), next(1024)
		}
	}
}

// lcg returns a deterministic pseudo-random source: next(n) is in [0, n).
func lcg(state uint64) func(int) int {
	return func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
}

// referenceBestHostInGroup is the O(hosts) scan BestHostInGroup
// replaces: BestHost's scan over the hosts SetHostGroup put in group.
func referenceBestHostInGroup(inv *Inventory, group, memMB int) *Host {
	var best *Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if g, ok := inv.HostGroup(id); !ok || g != group || !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// FuzzInventoryIndexes decodes the input into interleavings of churn's
// mutations with the four indexed queries, and compares every answer
// with its linear reference scan, ending with CheckInvariants and with
// every VM's lookup: removed ones resolve to nil, live ones to themselves.
func FuzzInventoryIndexes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 7, 1, 0, 14, 0, 0, 15, 2, 5, 16, 1, 3, 17, 4, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 11, 0, 1, 9, 0, 40, 7, 0, 0, 16, 0, 8, 17, 1, 2, 14, 2, 2})
	f.Add([]byte{1, 5, 6, 5, 2, 0, 6, 2, 3, 10, 2, 4, 12, 2, 1, 13, 2, 3, 8, 5, 0, 15, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newChurn(6, 8000, 16384, 3, 300, 2)
		inv := c.inv
		for ; len(data) >= 3; data = data[3:] {
			op, x, y := int(data[0])%(churnOps+4), int(data[1]), int(data[2])
			memMB := 1024 * (1 + y%16)
			switch op - churnOps {
			case 0:
				if got, want := inv.BestHost(memMB), referenceBestHost(inv, memMB); got != want {
					t.Fatalf("BestHost(%d) = %v, scan = %v", memMB, got, want)
				}
			case 1:
				exclude, cpuMHz := c.hosts[x%len(c.hosts)].ID, CPUReservationMHz(x%5)
				got := inv.BestHostExcluding(exclude, memMB, cpuMHz)
				if want := referenceBestHostExcluding(inv, exclude, memMB, cpuMHz); got != want {
					t.Fatalf("BestHostExcluding(%v, %d, %d) = %v, scan = %v", exclude, memMB, cpuMHz, got, want)
				}
			case 2:
				group := x % 3 // group 2 never exists
				if got, want := inv.BestHostInGroup(group, memMB), referenceBestHostInGroup(inv, group, memMB); got != want {
					t.Fatalf("BestHostInGroup(%d, %d) = %v, scan = %v", group, memMB, got, want)
				}
			case 3:
				needGB := float64(y % 200)
				if got, want := inv.BestDatastore(needGB), referenceBestDatastore(inv, needGB); got != want {
					t.Fatalf("BestDatastore(%v) = %v, scan = %v", needGB, got, want)
				}
			default:
				c.apply(op, x, y)
			}
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, vm := range c.gone {
			if inv.VM(vm.ID) != nil || inv.Get(vm.ID) != nil {
				t.Fatalf("removed VM %d still resolves", vm.ID)
			}
		}
		for _, vm := range c.vms {
			if inv.VM(vm.ID) != vm || inv.Get(vm.ID) != vm {
				t.Fatalf("live VM %d does not resolve to itself", vm.ID)
			}
		}
	})
}
