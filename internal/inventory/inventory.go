// Package inventory models the managed-object inventory of a virtualized
// datacenter: datacenters, clusters, hosts, datastores, resource pools,
// VMs, templates, and vApps, connected in the parent/child hierarchy that
// management operations lock along.
//
// The inventory is pure data plus invariant checks; it knows nothing about
// virtual time. The management plane (package mgmt) serializes access, so
// none of these types need internal locking.
package inventory

import (
	"fmt"
	"slices"
)

// ID uniquely identifies an entity within one Inventory. IDs are assigned
// densely in creation order, which also serves as the canonical lock
// ordering that prevents deadlock in the management plane.
type ID int64

// None is the zero ID, used for "no parent" and "no reference".
const None ID = 0

// Kind enumerates entity types.
type Kind int

// Entity kinds, from the root of the hierarchy down.
const (
	KindDatacenter Kind = iota + 1
	KindCluster
	KindHost
	KindResourcePool
	KindDatastore
	KindNetwork
	KindVM
	KindTemplate
	KindVApp
)

var kindNames = map[Kind]string{
	KindDatacenter:   "datacenter",
	KindCluster:      "cluster",
	KindHost:         "host",
	KindResourcePool: "resourcepool",
	KindDatastore:    "datastore",
	KindNetwork:      "network",
	KindVM:           "vm",
	KindTemplate:     "template",
	KindVApp:         "vapp",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Entity is the common header embedded in every inventory object.
type Entity struct {
	ID   ID
	Name string
	Kind Kind
}

// VMState is the lifecycle state of a virtual machine.
type VMState int

// VM lifecycle states.
const (
	VMProvisioning VMState = iota + 1
	VMPoweredOff
	VMPoweredOn
	VMSuspended
	VMDeleted
)

var vmStateNames = map[VMState]string{
	VMProvisioning: "provisioning",
	VMPoweredOff:   "poweredOff",
	VMPoweredOn:    "poweredOn",
	VMSuspended:    "suspended",
	VMDeleted:      "deleted",
}

func (s VMState) String() string {
	if n, ok := vmStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("vmstate(%d)", int(s))
}

// Datacenter is the root container.
type Datacenter struct {
	Entity
	Clusters   []ID
	Datastores []ID
}

// Cluster groups hosts for placement and admission.
type Cluster struct {
	Entity
	Hosts []ID
}

// Host is a hypervisor host with simple capacity accounting.
type Host struct {
	Entity
	CPUMHz     int // total CPU capacity
	MemMB      int // total memory
	UsedCPUMHz int
	UsedMemMB  int
	VMs        []ID
	// Maintenance marks a host being evacuated/serviced: placement must
	// skip it and it should end up empty.
	Maintenance bool
	// Failed marks a crashed host: its VMs are stranded until the HA
	// engine restarts them elsewhere (package ha).
	Failed bool
	stale  bool // queued in Inventory.stale for rekeying
	group  int  // 1 + placement group (see SetHostGroup); 0 = never grouped
}

// InService reports whether the host can accept placements.
func (h *Host) InService() bool { return !h.Maintenance && !h.Failed }

// FreeCPUMHz returns remaining CPU capacity.
func (h *Host) FreeCPUMHz() int { return h.CPUMHz - h.UsedCPUMHz }

// FreeMemMB returns remaining memory capacity.
func (h *Host) FreeMemMB() int { return h.MemMB - h.UsedMemMB }

// Datastore is shared storage with capacity and copy-bandwidth attributes.
// Bandwidth is consumed by the storage simulator (package storage).
type Datastore struct {
	Entity
	CapacityGB    float64
	UsedGB        float64
	BandwidthMBps float64 // aggregate copy bandwidth
	VMs           []ID
	reservedGB    float64 // in-flight reservation (see Reserve)
	stale         bool    // queued in Inventory.stale for rekeying
}

// FreeGB returns remaining datastore capacity.
func (d *Datastore) FreeGB() float64 { return d.CapacityGB - d.UsedGB }

// FillFraction returns UsedGB/CapacityGB.
func (d *Datastore) FillFraction() float64 {
	if d.CapacityGB == 0 {
		return 0
	}
	return d.UsedGB / d.CapacityGB
}

// Template is a catalog image VMs are cloned from.
type Template struct {
	Entity
	DiskGB      float64
	MemMB       int
	CPUs        int
	DatastoreID ID // where the base disk lives
}

// VM is a virtual machine.
type VM struct {
	Entity
	State       VMState
	CPUs        int
	MemMB       int
	DiskGB      float64 // bytes attributable to this VM on its datastore
	HostID      ID
	DatastoreID ID
	VAppID      ID

	// Linked-clone bookkeeping. LinkedParent is the template (or VM) whose
	// base disk this VM's delta chain hangs off; ChainLen is the number of
	// redo links between this VM's active disk and the base.
	LinkedParent ID
	ChainLen     int
	Snapshots    int

	// SuspendGB is the size of the suspend (memory checkpoint) file
	// currently charged to the VM's datastore, 0 when not suspended.
	SuspendGB float64

	slot int // index in Inventory.vms
}

// VApp is a group of VMs deployed and managed as a unit (the cloud
// director's unit of self-service deployment).
type VApp struct {
	Entity
	OrgName string
	VMs     []ID

	slot int // index in Inventory.vapps; -1 once removed
}

// Inventory is the registry of all entities in one simulated installation.
type Inventory struct {
	nextID     ID
	entities   entityTable
	hosts      []ID
	datastores []ID
	vms        []ID
	templates  []ID
	vapps      []ID

	// vms and vapps churn on every deploy/delete; an O(n) ordered delete
	// there is quadratic at million-VM scale. Each VM and vApp records
	// its index (slot), so a removal tombstones it (None) in O(1), and
	// enumeration compacts lazily, preserving creation order exactly.
	vmHoles   int
	vappHoles int

	// Free-capacity indexes: hostIdx orders in-service hosts by free
	// memory, dsIdx orders datastores by free space net of reservations.
	// A mutation marks its host or datastore stale, and every index
	// reader first rekeys the stale entities from their current fields,
	// so placement is O(1) per query with winners identical to a linear
	// scan (see capHeap). groupIdx adds per-group host heaps once
	// SetHostGroup partitions hosts (the sharded plane's shard affinity).
	hostIdx  *capHeap
	dsIdx    *capHeap
	stale    []any      // *Host and *Datastore awaiting rekey
	groupIdx []*capHeap // indexed by placement group
}

// New returns an empty inventory.
func New() *Inventory {
	return &Inventory{
		nextID:  1,
		hostIdx: newCapHeap(),
		dsIdx:   newCapHeap(),
	}
}

// rekeyHost marks h's free-memory index entries stale (see rekeyStale).
func (inv *Inventory) rekeyHost(h *Host) {
	if !h.stale {
		h.stale = true
		inv.stale = append(inv.stale, h)
	}
}

// rekeyDatastore marks d's entry in the free-space index stale.
func (inv *Inventory) rekeyDatastore(d *Datastore) {
	if !d.stale {
		d.stale = true
		inv.stale = append(inv.stale, d)
	}
}

// rekeyStale refreshes the index entries of every entity marked stale
// since the last read. The empty-queue check inlines into each reader.
func (inv *Inventory) rekeyStale() {
	if len(inv.stale) > 0 {
		inv.rekeyQueued()
	}
}

// rekeyQueued recomputes each queued entity's keys from its current
// fields, so they bit-match what a linear scan would compare. Hosts out
// of service (maintenance or failed) are excluded entirely, matching the
// InService check every placement scan applies.
func (inv *Inventory) rekeyQueued() {
	for _, e := range inv.stale {
		switch e := e.(type) {
		case *Host:
			e.stale = false
			if e.InService() {
				key := float64(e.FreeMemMB())
				inv.hostIdx.Set(e.ID, key)
				if e.group > 0 {
					inv.groupIdx[e.group-1].Set(e.ID, key)
				}
				continue
			}
			inv.hostIdx.Remove(e.ID)
			if e.group > 0 {
				inv.groupIdx[e.group-1].Remove(e.ID)
			}
		case *Datastore:
			e.stale = false
			inv.dsIdx.Set(e.ID, e.FreeGB()-e.reservedGB)
		}
	}
	inv.stale = inv.stale[:0]
}

func (inv *Inventory) allocate() ID {
	id := inv.nextID
	inv.nextID++
	return id
}

// AddDatacenter creates a root datacenter.
func (inv *Inventory) AddDatacenter(name string) *Datacenter {
	dc := &Datacenter{Entity: Entity{ID: inv.allocate(), Name: name, Kind: KindDatacenter}}
	inv.entities.put(dc.ID, dc)
	return dc
}

// AddCluster creates a cluster inside dc.
func (inv *Inventory) AddCluster(dc *Datacenter, name string) *Cluster {
	c := &Cluster{Entity: Entity{ID: inv.allocate(), Name: name, Kind: KindCluster}}
	inv.entities.put(c.ID, c)
	dc.Clusters = append(dc.Clusters, c.ID)
	return c
}

// AddHost creates a host inside cluster with the given capacity.
func (inv *Inventory) AddHost(c *Cluster, name string, cpuMHz, memMB int) *Host {
	if cpuMHz <= 0 || memMB <= 0 {
		panic(fmt.Sprintf("inventory: host %q capacity %d MHz / %d MB", name, cpuMHz, memMB))
	}
	h := &Host{
		Entity: Entity{ID: inv.allocate(), Name: name, Kind: KindHost},
		CPUMHz: cpuMHz, MemMB: memMB,
	}
	inv.entities.put(h.ID, h)
	inv.hosts = append(inv.hosts, h.ID)
	c.Hosts = append(c.Hosts, h.ID)
	inv.rekeyHost(h)
	return h
}

// AddDatastore creates a datastore inside dc.
func (inv *Inventory) AddDatastore(dc *Datacenter, name string, capacityGB, bandwidthMBps float64) *Datastore {
	if capacityGB <= 0 || bandwidthMBps <= 0 {
		panic(fmt.Sprintf("inventory: datastore %q capacity %v GB bw %v MB/s", name, capacityGB, bandwidthMBps))
	}
	d := &Datastore{
		Entity:     Entity{ID: inv.allocate(), Name: name, Kind: KindDatastore},
		CapacityGB: capacityGB, BandwidthMBps: bandwidthMBps,
	}
	inv.entities.put(d.ID, d)
	inv.datastores = append(inv.datastores, d.ID)
	dc.Datastores = append(dc.Datastores, d.ID)
	inv.rekeyDatastore(d)
	return d
}

// AddTemplate creates a template whose base disk occupies space on ds.
func (inv *Inventory) AddTemplate(ds *Datastore, name string, diskGB float64, memMB, cpus int) *Template {
	if diskGB <= 0 {
		panic(fmt.Sprintf("inventory: template %q disk %v GB", name, diskGB))
	}
	t := &Template{
		Entity: Entity{ID: inv.allocate(), Name: name, Kind: KindTemplate},
		DiskGB: diskGB, MemMB: memMB, CPUs: cpus, DatastoreID: ds.ID,
	}
	inv.entities.put(t.ID, t)
	inv.templates = append(inv.templates, t.ID)
	ds.UsedGB += diskGB
	inv.rekeyDatastore(ds)
	return t
}

// AddVApp creates an empty vApp owned by org.
func (inv *Inventory) AddVApp(name, org string) *VApp {
	v := &VApp{
		Entity:  Entity{ID: inv.allocate(), Name: name, Kind: KindVApp},
		OrgName: org,
		slot:    len(inv.vapps),
	}
	inv.entities.put(v.ID, v)
	inv.vapps = append(inv.vapps, v.ID)
	return v
}

// Grow makes room for vms more VMs, so that registering them re-copies
// neither the entity table's page directory nor the VM list as they fill.
func (inv *Inventory) Grow(vms int) {
	inv.entities.grow(inv.nextID + ID(vms))
	inv.vms = slices.Grow(inv.vms, vms)
}

// AddVM creates a VM placed on host and ds, charging capacity on both.
// diskGB is the space the VM's own disks occupy (the delta disk size for a
// linked clone). The VM starts in VMProvisioning.
func (inv *Inventory) AddVM(name string, host *Host, ds *Datastore, cpus, memMB int, diskGB float64) (*VM, error) {
	if cpus <= 0 || memMB <= 0 || diskGB < 0 {
		panic(fmt.Sprintf("inventory: vm %q shape cpus=%d mem=%d disk=%v", name, cpus, memMB, diskGB))
	}
	if host.FreeMemMB() < memMB {
		return nil, fmt.Errorf("inventory: host %s out of memory for %s (%d free, need %d)", host.Name, name, host.FreeMemMB(), memMB)
	}
	if ds.FreeGB() < diskGB {
		return nil, fmt.Errorf("inventory: datastore %s out of space for %s (%.1f free, need %.1f)", ds.Name, name, ds.FreeGB(), diskGB)
	}
	vm := &VM{
		Entity: Entity{ID: inv.allocate(), Name: name, Kind: KindVM},
		State:  VMProvisioning,
		CPUs:   cpus, MemMB: memMB, DiskGB: diskGB,
		HostID: host.ID, DatastoreID: ds.ID,
		slot: len(inv.vms),
	}
	inv.entities.put(vm.ID, vm)
	inv.vms = append(inv.vms, vm.ID)
	host.VMs = append(host.VMs, vm.ID)
	host.UsedMemMB += memMB
	ds.VMs = append(ds.VMs, vm.ID)
	ds.UsedGB += diskGB
	inv.rekeyHost(host)
	inv.rekeyDatastore(ds)
	return vm, nil
}

// RemoveVM deletes vm, releasing host and datastore capacity. It is an
// error to remove a powered-on or already-deleted VM.
func (inv *Inventory) RemoveVM(vm *VM) error {
	if vm.State == VMPoweredOn {
		return fmt.Errorf("inventory: cannot remove powered-on VM %s", vm.Name)
	}
	if vm.State == VMDeleted {
		return fmt.Errorf("inventory: VM %s already deleted", vm.Name)
	}
	host := inv.Host(vm.HostID)
	ds := inv.Datastore(vm.DatastoreID)
	host.VMs = removeID(host.VMs, vm.ID)
	host.UsedMemMB -= vm.MemMB
	ds.VMs = removeID(ds.VMs, vm.ID)
	ds.UsedGB -= vm.DiskGB
	if vm.VAppID != None {
		va := inv.VApp(vm.VAppID)
		va.VMs = removeID(va.VMs, vm.ID)
	}
	vm.State = VMDeleted
	inv.entities.remove(vm.ID, inv.nextID)
	inv.vms[vm.slot] = None
	inv.vmHoles++
	inv.rekeyHost(host)
	inv.rekeyDatastore(ds)
	return nil
}

// RemoveVApp deletes an (empty) vApp container. Removing it again is a
// no-op.
func (inv *Inventory) RemoveVApp(va *VApp) error {
	if len(va.VMs) != 0 {
		return fmt.Errorf("inventory: vApp %s still has %d VMs", va.Name, len(va.VMs))
	}
	if va.slot < 0 {
		return nil
	}
	inv.entities.remove(va.ID, inv.nextID)
	inv.vapps[va.slot] = None
	va.slot = -1
	inv.vappHoles++
	return nil
}

// MoveVM relocates vm to a new host and/or datastore, transferring the
// capacity charges. Pass nil to keep the current placement on that axis.
// Both axes are checked before either changes.
func (inv *Inventory) MoveVM(vm *VM, newHost *Host, newDS *Datastore) error {
	if vm.State == VMDeleted {
		return fmt.Errorf("inventory: move of deleted VM %s", vm.Name)
	}
	moveHost := newHost != nil && newHost.ID != vm.HostID
	moveDS := newDS != nil && newDS.ID != vm.DatastoreID
	if moveHost && newHost.FreeMemMB() < vm.MemMB {
		return fmt.Errorf("inventory: host %s out of memory for %s", newHost.Name, vm.Name)
	}
	if moveDS && newDS.FreeGB() < vm.DiskGB {
		return fmt.Errorf("inventory: datastore %s out of space for %s", newDS.Name, vm.Name)
	}
	if moveHost {
		old := inv.Host(vm.HostID)
		old.VMs = removeID(old.VMs, vm.ID)
		old.UsedMemMB -= vm.MemMB
		if vm.State == VMPoweredOn {
			old.UsedCPUMHz -= CPUReservationMHz(vm.CPUs)
			newHost.UsedCPUMHz += CPUReservationMHz(vm.CPUs)
		}
		newHost.VMs = append(newHost.VMs, vm.ID)
		newHost.UsedMemMB += vm.MemMB
		vm.HostID = newHost.ID
		inv.rekeyHost(old)
		inv.rekeyHost(newHost)
	}
	if moveDS {
		old := inv.Datastore(vm.DatastoreID)
		old.VMs = removeID(old.VMs, vm.ID)
		old.UsedGB -= vm.DiskGB
		newDS.VMs = append(newDS.VMs, vm.ID)
		newDS.UsedGB += vm.DiskGB
		vm.DatastoreID = newDS.ID
		inv.rekeyDatastore(old)
		inv.rekeyDatastore(newDS)
	}
	return nil
}

// cpuMHzPerVCPU is the CPU reservation charged per vCPU while powered on.
const cpuMHzPerVCPU = 500

// CPUReservationMHz is the CPU reservation a VM with cpus vCPUs holds
// while powered on. Every admission check in the inventory (PowerOn,
// Resume, MoveVM) charges this amount, so every picker that asks "will
// this VM fit that host once running" — DRS, HA failover, workload
// migrations — must use the same helper; the literal used to be
// duplicated across those packages, a silent divergence hazard.
func CPUReservationMHz(cpus int) int { return cpus * cpuMHzPerVCPU }

// PowerOn transitions vm to VMPoweredOn, charging CPU on its host.
// Suspended VMs must Resume instead, so their checkpoint is reclaimed.
func (inv *Inventory) PowerOn(vm *VM) error {
	if vm.State != VMPoweredOff && vm.State != VMProvisioning {
		return fmt.Errorf("inventory: power on %s in state %s", vm.Name, vm.State)
	}
	h := inv.Host(vm.HostID)
	need := CPUReservationMHz(vm.CPUs)
	if h.FreeCPUMHz() < need {
		return fmt.Errorf("inventory: host %s out of CPU for %s", h.Name, vm.Name)
	}
	h.UsedCPUMHz += need
	vm.State = VMPoweredOn
	return nil
}

// PowerOff transitions vm to VMPoweredOff, releasing CPU. Powering off a
// suspended VM discards its checkpoint, reclaiming the suspend file.
func (inv *Inventory) PowerOff(vm *VM) error {
	if vm.State != VMPoweredOn && vm.State != VMSuspended {
		return fmt.Errorf("inventory: power off %s in state %s", vm.Name, vm.State)
	}
	if vm.State == VMPoweredOn {
		inv.Host(vm.HostID).UsedCPUMHz -= CPUReservationMHz(vm.CPUs)
	}
	inv.reclaimSuspendFile(vm)
	vm.State = VMPoweredOff
	return nil
}

// Suspend checkpoints a powered-on VM: CPU is released and the memory
// image (suspendGB) is charged against the VM's datastore.
func (inv *Inventory) Suspend(vm *VM, suspendGB float64) error {
	if vm.State != VMPoweredOn {
		return fmt.Errorf("inventory: suspend %s in state %s", vm.Name, vm.State)
	}
	if suspendGB < 0 {
		panic(fmt.Sprintf("inventory: suspend file %v GB", suspendGB))
	}
	ds := inv.Datastore(vm.DatastoreID)
	if ds.FreeGB() < suspendGB {
		return fmt.Errorf("inventory: datastore %s out of space for suspend of %s", ds.Name, vm.Name)
	}
	inv.Host(vm.HostID).UsedCPUMHz -= CPUReservationMHz(vm.CPUs)
	vm.SuspendGB = suspendGB
	vm.DiskGB += suspendGB
	ds.UsedGB += suspendGB
	inv.rekeyDatastore(ds)
	vm.State = VMSuspended
	return nil
}

// Resume restores a suspended VM to running, re-charging CPU and
// reclaiming the suspend file.
func (inv *Inventory) Resume(vm *VM) error {
	if vm.State != VMSuspended {
		return fmt.Errorf("inventory: resume %s in state %s", vm.Name, vm.State)
	}
	h := inv.Host(vm.HostID)
	need := CPUReservationMHz(vm.CPUs)
	if h.FreeCPUMHz() < need {
		return fmt.Errorf("inventory: host %s out of CPU to resume %s", h.Name, vm.Name)
	}
	h.UsedCPUMHz += need
	inv.reclaimSuspendFile(vm)
	vm.State = VMPoweredOn
	return nil
}

func (inv *Inventory) reclaimSuspendFile(vm *VM) {
	if vm.SuspendGB <= 0 {
		return
	}
	ds := inv.Datastore(vm.DatastoreID)
	vm.DiskGB -= vm.SuspendGB
	ds.UsedGB -= vm.SuspendGB
	vm.SuspendGB = 0
	inv.rekeyDatastore(ds)
}

// removeID deletes id from ids, keeping the order of the rest. IDs are
// unique within a list, and the closed loops delete the VMs they placed
// most recently, so the scan starts from the back.
func removeID(ids []ID, id ID) []ID {
	for i := len(ids) - 1; i >= 0; i-- {
		if ids[i] == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Get returns the entity with the given ID, or nil.
func (inv *Inventory) Get(id ID) any { return inv.entities.get(id) }

// Host returns the host with id, or nil.
func (inv *Inventory) Host(id ID) *Host { h, _ := inv.entities.get(id).(*Host); return h }

// Datastore returns the datastore with id, or nil.
func (inv *Inventory) Datastore(id ID) *Datastore {
	d, _ := inv.entities.get(id).(*Datastore)
	return d
}

// Template returns the template with id, or nil.
func (inv *Inventory) Template(id ID) *Template { t, _ := inv.entities.get(id).(*Template); return t }

// VM returns the VM with id, or nil.
func (inv *Inventory) VM(id ID) *VM { v, _ := inv.entities.get(id).(*VM); return v }

// VApp returns the vApp with id, or nil.
func (inv *Inventory) VApp(id ID) *VApp { v, _ := inv.entities.get(id).(*VApp); return v }

// Hosts returns all host IDs in creation order.
func (inv *Inventory) Hosts() []ID { return inv.hosts }

// Datastores returns all datastore IDs in creation order.
func (inv *Inventory) Datastores() []ID { return inv.datastores }

// VMs returns all live VM IDs in creation order. Removal tombstones are
// compacted here (order-preserving), so the returned slice never holds
// holes; the slice is valid until the next mutation.
func (inv *Inventory) VMs() []ID {
	if inv.vmHoles > 0 {
		inv.vms = compactIDs(inv.vms, func(id ID, slot int) { inv.VM(id).slot = slot })
		inv.vmHoles = 0
	}
	return inv.vms
}

// Templates returns all template IDs in creation order.
func (inv *Inventory) Templates() []ID { return inv.templates }

// VApps returns all live vApp IDs in creation order, compacting removal
// tombstones like VMs.
func (inv *Inventory) VApps() []ID {
	if inv.vappHoles > 0 {
		inv.vapps = compactIDs(inv.vapps, func(id ID, slot int) { inv.VApp(id).slot = slot })
		inv.vappHoles = 0
	}
	return inv.vapps
}

// compactIDs squeezes None tombstones out of ids in place, calling moved
// for each survivor whose index changes, and returns the shortened slice.
func compactIDs(ids []ID, moved func(id ID, slot int)) []ID {
	out := ids[:0]
	for i, id := range ids {
		if id != None {
			if len(out) != i {
				moved(id, len(out))
			}
			out = append(out, id)
		}
	}
	return out
}

// SortIDs sorts ids in place in canonical (creation) order and removes
// duplicates, returning the possibly shortened slice. Lock acquisition in
// this order is deadlock-free.
func SortIDs(ids []ID) []ID {
	slices.Sort(ids) // closure-free: this is the lock hot path
	out := ids[:0]
	var prev ID = -1
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}

// BestHost returns the in-service host with the most free memory (lowest
// ID on ties) provided it fits memMB, or nil when no host fits. This is
// the indexed equivalent of scanning Hosts() in creation order keeping
// the strictly-freest fitting host: if the globally freest host does not
// fit, no host does, so one root peek answers the scan exactly.
func (inv *Inventory) BestHost(memMB int) *Host {
	inv.rekeyStale()
	id, key, ok := inv.hostIdx.Max()
	if !ok || key < float64(memMB) {
		return nil
	}
	return inv.Host(id)
}

// BestHostExcluding returns the in-service host with the most free
// memory (lowest ID on ties) that fits memMB — and, when cpuMHz > 0, has
// at least that much free CPU — skipping the host with ID exclude. It is
// the indexed equivalent of the linear "most free, first wins" scan the
// HA failover and workload-migration pickers ran: the heap walk visits
// hosts in exactly the scan's ranking order and stops at the first one
// passing the filters, so the winner (ties included) is identical while
// the cost stays near O(log hosts) instead of O(hosts) per pick.
func (inv *Inventory) BestHostExcluding(exclude ID, memMB, cpuMHz int) *Host {
	inv.rekeyStale()
	id, ok := inv.hostIdx.bestWhere(float64(memMB), func(id ID) bool {
		if id == exclude {
			return false
		}
		return cpuMHz <= 0 || inv.Host(id).FreeCPUMHz() >= cpuMHz
	})
	if !ok {
		return nil
	}
	return inv.Host(id)
}

// HostGroup returns the placement group id was assigned via SetHostGroup
// and whether it was ever grouped. Policy implementations that scan
// hosts linearly use it to honor the sharded plane's host partition.
func (inv *Inventory) HostGroup(id ID) (int, bool) {
	if h := inv.Host(id); h != nil && h.group > 0 {
		return h.group - 1, true
	}
	return 0, false
}

// BestHostInGroup is BestHost restricted to one placement group (the
// sharded plane's host partition). It returns nil when the group is
// empty, has no fitting host, or no groups were ever assigned.
func (inv *Inventory) BestHostInGroup(group, memMB int) *Host {
	inv.rekeyStale()
	if group < 0 || group >= len(inv.groupIdx) || inv.groupIdx[group] == nil {
		return nil
	}
	id, key, ok := inv.groupIdx[group].Max()
	if !ok || key < float64(memMB) {
		return nil
	}
	return inv.Host(id)
}

// SetHostGroup assigns host id to a placement group, maintaining the
// per-group free-memory index. The sharded plane calls this with its
// host→shard partition; regrouping moves the host between group heaps.
// group must not be negative.
func (inv *Inventory) SetHostGroup(id ID, group int) {
	h := inv.Host(id)
	if h == nil || group < 0 {
		panic(fmt.Sprintf("inventory: SetHostGroup(%d, %d) needs a host and a group ≥ 0", id, group))
	}
	if h.group == group+1 {
		return
	}
	if h.group > 0 {
		inv.groupIdx[h.group-1].Remove(id)
	}
	for len(inv.groupIdx) <= group {
		inv.groupIdx = append(inv.groupIdx, nil)
	}
	if inv.groupIdx[group] == nil {
		inv.groupIdx[group] = newCapHeap()
	}
	h.group = group + 1
	inv.rekeyHost(h)
}

// BestDatastore returns the datastore with the most free space net of
// reservations (lowest ID on ties) provided it fits needGB, or nil when
// none fits — the indexed equivalent of the most-effective-free scan.
func (inv *Inventory) BestDatastore(needGB float64) *Datastore {
	inv.rekeyStale()
	id, key, ok := inv.dsIdx.Max()
	if !ok || key < needGB {
		return nil
	}
	return inv.Datastore(id)
}

// Reserve adjusts the in-flight space reservation against datastore id by
// deltaGB (positive to claim, negative to release). Reservations reduce
// the datastore's effective free space for placement without charging
// UsedGB, so concurrent deploys don't herd onto the same "most free"
// datastore before any capacity lands.
func (inv *Inventory) Reserve(id ID, deltaGB float64) {
	d := inv.Datastore(id)
	if d == nil {
		panic(fmt.Sprintf("inventory: Reserve on non-datastore %d", id))
	}
	d.reservedGB += deltaGB
	inv.rekeyDatastore(d)
}

// EffectiveFreeGB is d's free space net of in-flight reservations — the
// quantity placement compares.
func (inv *Inventory) EffectiveFreeGB(d *Datastore) float64 {
	return d.FreeGB() - d.reservedGB
}

// SetHostMaintenance fences (or unfences) h for placement, keeping the
// free-memory indexes consistent. All maintenance transitions must go
// through here rather than writing the field directly.
func (inv *Inventory) SetHostMaintenance(h *Host, v bool) {
	h.Maintenance = v
	inv.rekeyHost(h)
}

// SetHostFailed marks h crashed (or repaired), keeping the free-memory
// indexes consistent. All failure transitions must go through here.
func (inv *Inventory) SetHostFailed(h *Host, v bool) {
	h.Failed = v
	inv.rekeyHost(h)
}

// AddDatastoreUsed charges deltaGB of space on d (negative to reclaim)
// for disk growth outside VM add/move — snapshots and consolidation.
func (inv *Inventory) AddDatastoreUsed(d *Datastore, deltaGB float64) {
	d.UsedGB += deltaGB
	inv.rekeyDatastore(d)
}

// CheckInvariants verifies capacity accounting and cross-references,
// returning the first violation found. Tests and the simulator's debug
// mode call it after mutation batches.
func (inv *Inventory) CheckInvariants() error {
	for _, hid := range inv.hosts {
		h := inv.Host(hid)
		mem, cpu := 0, 0
		for _, vid := range h.VMs {
			vm := inv.VM(vid)
			if vm == nil {
				return fmt.Errorf("host %s references missing VM %d", h.Name, vid)
			}
			if vm.HostID != hid {
				return fmt.Errorf("VM %s host back-reference mismatch", vm.Name)
			}
			mem += vm.MemMB
			if vm.State == VMPoweredOn {
				cpu += CPUReservationMHz(vm.CPUs)
			}
		}
		if mem != h.UsedMemMB {
			return fmt.Errorf("host %s memory accounting: sum %d != used %d", h.Name, mem, h.UsedMemMB)
		}
		if cpu != h.UsedCPUMHz {
			return fmt.Errorf("host %s cpu accounting: sum %d != used %d", h.Name, cpu, h.UsedCPUMHz)
		}
		if h.UsedMemMB > h.MemMB {
			return fmt.Errorf("host %s memory overcommitted", h.Name)
		}
	}
	for _, did := range inv.datastores {
		d := inv.Datastore(did)
		var used float64
		for _, vid := range d.VMs {
			vm := inv.VM(vid)
			if vm == nil {
				return fmt.Errorf("datastore %s references missing VM %d", d.Name, vid)
			}
			if vm.DatastoreID != did {
				return fmt.Errorf("VM %s datastore back-reference mismatch", vm.Name)
			}
			used += vm.DiskGB
		}
		for _, tid := range inv.templates {
			if t := inv.Template(tid); t.DatastoreID == did {
				used += t.DiskGB
			}
		}
		if diff := used - d.UsedGB; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("datastore %s space accounting: sum %.3f != used %.3f", d.Name, used, d.UsedGB)
		}
		if d.UsedGB > d.CapacityGB+1e-6 {
			return fmt.Errorf("datastore %s overcommitted", d.Name)
		}
	}
	holes := 0
	for i, vid := range inv.vms {
		if vid == None {
			holes++
			continue
		}
		vm := inv.VM(vid)
		if vm == nil {
			return fmt.Errorf("VM list references missing VM %d", vid)
		}
		if vm.State == VMDeleted {
			return fmt.Errorf("deleted VM %s still registered", vm.Name)
		}
		if vm.slot != i {
			return fmt.Errorf("VM %s records slot %d, list holds it at %d", vm.Name, vm.slot, i)
		}
	}
	if holes != inv.vmHoles {
		return fmt.Errorf("VM list has %d tombstones, counter says %d", holes, inv.vmHoles)
	}
	holes = 0
	for i, aid := range inv.vapps {
		if aid == None {
			holes++
			continue
		}
		va := inv.VApp(aid)
		if va == nil {
			return fmt.Errorf("vApp list references missing vApp %d", aid)
		}
		if va.slot != i {
			return fmt.Errorf("vApp %s records slot %d, list holds it at %d", va.Name, va.slot, i)
		}
	}
	if holes != inv.vappHoles {
		return fmt.Errorf("vApp list has %d tombstones, counter says %d", holes, inv.vappHoles)
	}
	return inv.checkIndexes()
}

// checkIndexes rekeys the stale entities, then verifies the free-capacity
// indexes against a from-scratch recomputation: membership must match
// in-service status and every key must equal the freshly derived value
// bit-for-bit (the property that makes indexed placement byte-identical
// to a linear scan). Each heap's order and position table are checked too.
func (inv *Inventory) checkIndexes() error {
	inv.rekeyStale()
	if err := inv.hostIdx.check(); err != nil {
		return fmt.Errorf("host index: %w", err)
	}
	if err := inv.dsIdx.check(); err != nil {
		return fmt.Errorf("datastore index: %w", err)
	}
	for g, h := range inv.groupIdx {
		if h == nil {
			continue
		}
		if err := h.check(); err != nil {
			return fmt.Errorf("group %d index: %w", g, err)
		}
	}
	inService := 0
	for _, hid := range inv.hosts {
		h := inv.Host(hid)
		key, ok := inv.hostIdx.Key(hid)
		if h.InService() {
			inService++
			if !ok {
				return fmt.Errorf("host %s in service but not indexed", h.Name)
			}
			if key != float64(h.FreeMemMB()) {
				return fmt.Errorf("host %s index key %v != free %d", h.Name, key, h.FreeMemMB())
			}
		} else if ok {
			return fmt.Errorf("host %s out of service but still indexed", h.Name)
		}
		if h.group > 0 {
			gkey, gok := inv.groupIdx[h.group-1].Key(hid)
			if gok != h.InService() {
				return fmt.Errorf("host %s group index membership %v != in-service %v", h.Name, gok, h.InService())
			}
			if gok && gkey != float64(h.FreeMemMB()) {
				return fmt.Errorf("host %s group index key %v != free %d", h.Name, gkey, h.FreeMemMB())
			}
		}
	}
	if inv.hostIdx.Len() != inService {
		return fmt.Errorf("host index holds %d entries, %d hosts in service", inv.hostIdx.Len(), inService)
	}
	for _, did := range inv.datastores {
		d := inv.Datastore(did)
		key, ok := inv.dsIdx.Key(did)
		if !ok {
			return fmt.Errorf("datastore %s not indexed", d.Name)
		}
		if want := d.FreeGB() - d.reservedGB; key != want {
			return fmt.Errorf("datastore %s index key %v != effective free %v", d.Name, key, want)
		}
	}
	if inv.dsIdx.Len() != len(inv.datastores) {
		return fmt.Errorf("datastore index holds %d entries, %d datastores", inv.dsIdx.Len(), len(inv.datastores))
	}
	return nil
}
