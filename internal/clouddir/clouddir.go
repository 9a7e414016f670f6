// Package clouddir simulates the cloud-director layer that turns a
// virtualized datacenter into a self-service cloud: API cells that front
// every request, catalogs of templates, vApp composition, placement,
// fast provisioning (linked clones with shadow-template chains), lease
// expiry, and the background datastore rebalancer.
//
// This is the layer whose workload the paper characterizes: every
// self-service request pays a cell stage before reaching the
// virtualization manager, fast provisioning removes most of the
// data-plane cost from deploys, and the resulting provisioning rates
// force previously rare "cloud reconfiguration" work — shadow-template
// creation and datastore rebalancing — to run continuously.
package clouddir

import (
	"fmt"
	"sort"
	"strconv"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// PlacementPolicy selects how deploys choose a datastore.
type PlacementPolicy int

// Placement policies.
const (
	// PlaceMostFree picks the datastore with the most free space —
	// capacity-balancing, the modern default.
	PlaceMostFree PlacementPolicy = iota
	// PlaceStickyOrg hashes the tenant to a datastore (a storage-profile
	// pinning model): heavy tenants overfill their datastore, which is
	// what makes background rebalancing necessary. Falls back to
	// most-free when the pinned datastore is full.
	PlaceStickyOrg
)

func (p PlacementPolicy) String() string {
	if p == PlaceStickyOrg {
		return "sticky-org"
	}
	return "most-free"
}

// MarshalText writes the placement's name, so a scenario file spells
// it as a word.
func (p PlacementPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (p *PlacementPolicy) UnmarshalText(b []byte) error {
	for _, v := range []PlacementPolicy{PlaceMostFree, PlaceStickyOrg} {
		if string(b) == v.String() {
			*p = v
			return nil
		}
	}
	return fmt.Errorf("clouddir: unknown placement %q (want most-free or sticky-org)", b)
}

// Config sizes the cloud-director deployment. The JSON tags name the
// scenario file's director fields (internal/core).
type Config struct {
	// Cells is the number of director cells (front-end servers).
	Cells int `json:"cells,omitempty"`
	// CellThreads is each cell's concurrent request capacity.
	CellThreads int `json:"cellThreads,omitempty"`
	// FastProvisioning selects linked-clone deploys when true, full
	// clones otherwise.
	FastProvisioning bool `json:"fastProvisioning"`
	// MaxChainLen caps a linked-clone chain before a new shadow template
	// must be created (0 → the storage policy's limit; negative is
	// rejected).
	MaxChainLen int `json:"maxChainLen,omitempty"`
	// RebalanceThreshold is the datastore fill-imbalance (difference in
	// fill fraction) above which the rebalancer acts. <=0 disables it.
	RebalanceThreshold float64 `json:"rebalanceThreshold"`
	// RebalanceCheckS is how often the rebalancer evaluates imbalance.
	RebalanceCheckS float64 `json:"rebalanceCheckS,omitempty"`
	// RebalanceBatch is the maximum VMs moved per rebalance pass.
	RebalanceBatch int `json:"rebalanceBatch,omitempty"`
	// LeaseS is the vApp runtime lease; expired vApps are undeployed
	// automatically. 0 disables leases; negative is rejected.
	LeaseS float64 `json:"leaseS,omitempty"`
	// Placement selects the datastore-placement policy. Sticky-org
	// pinning composes with the director's placement scoring policy:
	// the pin is tried first, the scoring policy answers the general
	// search.
	Placement PlacementPolicy `json:"placement"`
	// OrgQuotaVMs caps each tenant's live VMs (0 = unlimited; negative
	// is rejected). Quota is enforced at vApp admission, counting
	// in-flight deploys.
	OrgQuotaVMs int `json:"orgQuotaVMs,omitempty"`
}

// DefaultConfig returns a two-cell director with fast provisioning on and
// the rebalancer checking hourly.
func DefaultConfig() Config {
	return Config{
		Cells:              2,
		CellThreads:        16,
		FastProvisioning:   true,
		RebalanceThreshold: 0.15,
		RebalanceCheckS:    3600,
		RebalanceBatch:     4,
	}
}

// Validate checks the director's sizing knobs.
func (c Config) Validate() error {
	if c.Cells <= 0 || c.CellThreads <= 0 {
		return fmt.Errorf("clouddir: non-positive cells/threads in %+v", c)
	}
	if c.MaxChainLen < 0 {
		return fmt.Errorf("clouddir: negative max chain length in %+v", c)
	}
	if c.LeaseS < 0 {
		return fmt.Errorf("clouddir: negative lease in %+v", c)
	}
	if c.OrgQuotaVMs < 0 {
		return fmt.Errorf("clouddir: negative org quota in %+v", c)
	}
	if c.RebalanceThreshold > 0 && (c.RebalanceCheckS <= 0 || c.RebalanceBatch <= 0) {
		return fmt.Errorf("clouddir: rebalancer enabled with bad interval/batch in %+v", c)
	}
	return nil
}

// chainKey identifies one linked-clone base chain: a source template's
// presence on one datastore.
type chainKey struct {
	tpl inventory.ID
	ds  inventory.ID
}

// chainState tracks the active base and clones-since-shadow for one chain.
type chainState struct {
	base    inventory.ID // template or shadow template the next clone links to
	count   int          // linked clones since base creation
	copying bool         // a shadow copy is in flight

	// head and tail are the FIFO of deploys parked until the copy ends.
	head, tail *shadowWaiter
}

// shadowWaiter is a deploy parked in baseFor while another deploy copies
// its chain's shadow. Records are pooled on the director and linked
// through next; recheck is bound to the record once.
type shadowWaiter struct {
	p       *sim.Proc
	cs      *chainState
	since   sim.Time // when the current piece of the wait began
	waitS   float64  // the wait so far, summed one piece per re-check
	next    *shadowWaiter
	recheck func()
}

// RebalanceEvent records one rebalancer pass that moved VMs.
type RebalanceEvent struct {
	Start, End      sim.Time
	Moved           int
	ImbalanceBefore float64
	ImbalanceAfter  float64
}

// Director is the simulated cloud director.
type Director struct {
	env    *sim.Env
	plane  *plane.Plane
	model  *ops.CostModel
	stream *rng.Stream
	place  policy.PlacementPolicy
	cfg    Config

	cells []*sim.Resource
	rr    int

	chains map[chainKey]*chainState

	// baseDS lists, per template, the datastores holding a live
	// linked-clone base (home or shadow) in ascending datastore-ID order.
	// placeNearBase scans this list instead of the whole chains map, so
	// its cost tracks the template's footprint — and ties break by
	// datastore ID instead of map iteration order.
	baseDS map[inventory.ID][]inventory.ID

	// orgHash caches each org's sticky-placement hash (FNV-1a 32-bit of
	// the org name), computed once per org instead of per placement.
	orgHash map[string]uint32

	nextVApp   int64
	nextShadow int64

	orgVMs          map[string]int
	quotaRejects    int64
	shadowCopies    int64
	leaseExpiries   int64
	rebalanceStarts int64
	rebalanceMoves  int64 // storage-migrations begun by the rebalancer
	rebalanceFutile int64 // passes that found no movable candidate
	rebalancing     bool
	rebalances      []RebalanceEvent
	liveVApps       map[inventory.ID]bool

	// placementFallbacks counts linked-clone deploys that found no
	// datastore holding a base for their template and fell back to
	// general placement (forcing a shadow copy); stickyOverflows counts
	// sticky-org placements whose pinned datastore was full.
	placementFallbacks int64
	stickyOverflows    int64

	// frameFree recycles per-deploy scatter/gather frames (outcome
	// slots plus the completion signal) so steady-state vApp deploys do
	// not allocate them. Frames are only touched from the kernel's
	// cooperative processes, so a plain slice suffices.
	frameFree []*deployFrame

	// waiterFree recycles shadowWaiter records, linked through next.
	waiterFree *shadowWaiter
}

// deployFrame is the scatter/gather state of a DeployVApp call with
// workers: a slot per member VM for its outcome, the signal the last
// worker fires, the outstanding-worker count, and the call's arguments,
// which every worker reads. work is bound to the frame once, so
// spawning a worker allocates no closure.
type deployFrame struct {
	slots           []vmOutcome
	done            *sim.Signal
	remaining, next int
	work            func(*sim.Proc)

	org     string
	tpl     *inventory.Template
	va      *inventory.VApp
	vm0     string // the first VM's name; the vApp's name is its prefix
	powerOn bool
	submit  sim.Time
}

// getFrame returns a frame for a vApp of n VMs, all but the last of
// them deployed by workers.
func (d *Director) getFrame(n int) *deployFrame {
	var f *deployFrame
	if k := len(d.frameFree); k > 0 {
		f = d.frameFree[k-1]
		d.frameFree[k-1] = nil
		d.frameFree = d.frameFree[:k-1]
	} else {
		f = &deployFrame{done: sim.NewSignal(d.env)}
		f.work = func(p *sim.Proc) { d.deployWorker(p, f) }
	}
	if cap(f.slots) < n {
		f.slots = make([]vmOutcome, n)
	}
	f.slots = f.slots[:n]
	f.remaining, f.next = n-1, 0
	return f
}

// putFrame returns a frame once every worker has exited (the caller saw
// none left, or passed done.Wait, which the last worker's fire
// precedes). It drops the frame's tasks and entities, so a pooled frame
// keeps none of them alive.
func (d *Director) putFrame(f *deployFrame) {
	clear(f.slots)
	f.org, f.tpl, f.va, f.vm0 = "", nil, nil, ""
	d.frameFree = append(d.frameFree, f)
}

// deployWorker deploys one member VM of f's vApp. Workers start in the
// order they were spawned, so each takes the next slot as it starts.
func (d *Director) deployWorker(p *sim.Proc, f *deployFrame) {
	i := f.next
	f.next++
	f.slots[i] = d.deployOne(p, f.org, memberName(f.vm0, f.va, i), f.tpl, f.va, f.powerOn, f.submit)
	f.remaining--
	if f.remaining == 0 {
		f.done.Fire()
	}
}

// memberName names va's member VM i; vm0 is the first member's name.
func memberName(vm0 string, va *inventory.VApp, i int) string {
	if i == 0 {
		return vm0
	}
	return va.Name + "-vm" + strconv.Itoa(i)
}

// New builds a director over an existing management plane. The stream
// seeds cell stage-time draws; it must be distinct from the managers'
// streams. place scores the hosts and datastores the director picks.
func New(env *sim.Env, pl *plane.Plane, model *ops.CostModel, stream *rng.Stream, place policy.PlacementPolicy, cfg Config) (*Director, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Director{
		env: env, plane: pl, model: model, stream: stream, place: place, cfg: cfg,
		chains:    make(map[chainKey]*chainState),
		baseDS:    make(map[inventory.ID][]inventory.ID),
		orgHash:   make(map[string]uint32),
		orgVMs:    make(map[string]int),
		liveVApps: make(map[inventory.ID]bool),
	}
	for i := 0; i < cfg.Cells; i++ {
		d.cells = append(d.cells, sim.NewResource(env, fmt.Sprintf("cell%d", i), cfg.CellThreads))
	}
	d.registerMetrics(env.Metrics())
	return d, nil
}

// registerMetrics wires per-cell station occupancy and the director's
// reconfiguration counters (shadow copies, rebalance passes, placement
// fallbacks) into the registry.
func (d *Director) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, c := range d.cells {
		c.RegisterMetrics("clouddir")
	}
	scalar := func(metric string, fn func() float64) { reg.ScalarFunc("clouddir", "director", metric, fn) }
	scalar("vapps_deployed", func() float64 { return float64(d.nextVApp) })
	scalar("shadow_copies", func() float64 { return float64(d.shadowCopies) })
	scalar("lease_expiries", func() float64 { return float64(d.leaseExpiries) })
	scalar("rebalance_passes", func() float64 { return float64(d.rebalanceStarts) })
	scalar("rebalance_moves", func() float64 { return float64(d.rebalanceMoves) })
	scalar("rebalance_futile", func() float64 { return float64(d.rebalanceFutile) })
	scalar("quota_rejects", func() float64 { return float64(d.quotaRejects) })
	scalar("placement_fallbacks", func() float64 { return float64(d.placementFallbacks) })
	scalar("sticky_overflows", func() float64 { return float64(d.stickyOverflows) })
}

// Plane returns the management plane the director submits operations
// to.
func (d *Director) Plane() *plane.Plane { return d.plane }

// Config returns the director's configuration.
func (d *Director) Config() Config { return d.cfg }

func (d *Director) maxChain() int {
	if d.cfg.MaxChainLen > 0 {
		return d.cfg.MaxChainLen
	}
	return d.plane.Storage().Policy.MaxChainLen
}

// cellStage charges one cell pass for an operation of kind k, returning
// (wait, service) seconds. Cells are assigned round-robin per request.
func (d *Director) cellStage(p *sim.Proc, k ops.Kind) (wait, service float64) {
	cell := d.cells[d.rr%len(d.cells)]
	d.rr++
	s := d.model.CellS(d.stream, k)
	t0 := p.Now()
	cell.Acquire(p, 1)
	wait = p.Now() - t0
	p.Sleep(s)
	cell.Release(1)
	return wait, s
}

// reqCtx runs the cell stage and returns the ReqCtx carrying it.
func (d *Director) reqCtx(p *sim.Proc, org string, k ops.Kind, submit sim.Time) mgmt.ReqCtx {
	wait, service := d.cellStage(p, k)
	return mgmt.ReqCtx{
		Org:    org,
		Submit: submit,
		Pre:    ops.Breakdown{Queue: wait, Cell: service},
	}
}

// placeHost returns the cluster host with the most free memory that fits
// memMB, or nil when none fits. On a multi-shard plane each request
// carries a preferred shard (its cell index modulo the shard count) and
// the most-free host on that shard wins when one fits — cell→shard
// affinity that keeps a cell's deploys on one management shard — with
// global most-free as the fallback. On a single shard the preference
// can't change the answer.
func (d *Director) placeHost(memMB, prefShard int) *inventory.Host {
	inv := d.plane.Inventory()
	if d.plane.ShardCount() > 1 {
		// The plane partitions hosts into inventory placement groups, so
		// the preferred shard's best host is one group query; the global
		// query answers the fallback.
		if h := d.place.BestHost(inv, memMB, prefShard); h != nil {
			return h
		}
	}
	return d.place.BestHost(inv, memMB, -1)
}

// placeDatastore returns a datastore that fits needGB under the
// configured placement policy, or nil when none fits.
func (d *Director) placeDatastore(needGB float64, org string) *inventory.Datastore {
	inv := d.plane.Inventory()
	if d.cfg.Placement == PlaceStickyOrg {
		if ds := d.stickyDatastore(org); ds != nil {
			if d.effectiveFree(ds) >= needGB {
				return ds
			}
			d.stickyOverflows++
		}
		// Pinned datastore is full: fall through to general placement.
	}
	return d.place.BestDatastore(inv, needGB)
}

// stickyDatastore returns org's pinned datastore — FNV-1a of the org name
// modulo the datastore count — or nil when there are no datastores. The
// hash is cached per org, and the modulo stays in uint32 throughout:
// int(h) of a hash above 2^31 is negative on 32-bit platforms, which the
// old hand-rolled expression turned into an index panic.
func (d *Director) stickyDatastore(org string) *inventory.Datastore {
	inv := d.plane.Inventory()
	ids := inv.Datastores()
	if len(ids) == 0 {
		return nil
	}
	h, ok := d.orgHash[org]
	if !ok {
		h = rng.NewHash32().String(org).Sum()
		d.orgHash[org] = h
	}
	return inv.Datastore(ids[h%uint32(len(ids))])
}

// effectiveFree is the datastore's free space net of in-flight deploy
// reservations.
func (d *Director) effectiveFree(ds *inventory.Datastore) float64 {
	return d.plane.Inventory().EffectiveFreeGB(ds)
}

// placeNearBase returns the most-free datastore that already holds a
// linked-clone base for tpl (its home datastore or an existing shadow)
// and fits needGB, or nil when none qualifies. A candidate whose chain
// is at its limit, with no shadow copy in flight, would have this
// deploy copy a new shadow there first, so it must also fit the
// template's disk. The template's home datastore is considered first
// and candidates follow in ascending datastore-ID order under a strict
// comparison, so equal-free ties resolve to (home, then lowest ID) —
// deterministically, where ranging over the chains map left the winner
// to map iteration order.
func (d *Director) placeNearBase(tpl *inventory.Template, needGB float64) *inventory.Datastore {
	inv := d.plane.Inventory()
	var best *inventory.Datastore
	consider := func(ds *inventory.Datastore) {
		if ds == nil {
			return
		}
		need := needGB
		if cs := d.chains[chainKey{tpl: tpl.ID, ds: ds.ID}]; cs != nil && cs.count >= d.maxChain() && !cs.copying {
			need += tpl.DiskGB
		}
		if d.effectiveFree(ds) < need {
			return
		}
		if best == nil || d.effectiveFree(ds) > d.effectiveFree(best) {
			best = ds
		}
	}
	consider(inv.Datastore(tpl.DatastoreID))
	for _, id := range d.baseDS[tpl.ID] {
		if id == tpl.DatastoreID {
			continue // home already considered (and wins its ties)
		}
		consider(inv.Datastore(id))
	}
	return best
}

// registerBase records that ds holds a live linked-clone base for tpl,
// keeping the per-template candidate list sorted by datastore ID.
func (d *Director) registerBase(tpl, ds inventory.ID) {
	list := d.baseDS[tpl]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= ds })
	if i < len(list) && list[i] == ds {
		return
	}
	list = append(list, inventory.None)
	copy(list[i+1:], list[i:])
	list[i] = ds
	d.baseDS[tpl] = list
}

// baseFor resolves (and if necessary creates) the linked-clone base for
// tpl on ds, paying a shadow full-copy when the datastore has no base yet
// or the chain hit its limit. It returns the base template to clone from
// plus the seconds spent waiting for someone else's shadow copy (queue
// time) and copying a shadow itself (data time).
func (d *Director) baseFor(p *sim.Proc, tpl *inventory.Template, ds *inventory.Datastore) (base *inventory.Template, waitS, copyS float64, err error) {
	inv := d.plane.Inventory()
	key := chainKey{tpl: tpl.ID, ds: ds.ID}
	cs, ok := d.chains[key]
	if !ok {
		cs = &chainState{}
		if ds.ID == tpl.DatastoreID {
			cs.base = tpl.ID
			d.registerBase(tpl.ID, ds.ID)
		}
		d.chains[key] = cs
	}
	for cs.base == inventory.None || cs.count >= d.maxChain() {
		if cs.copying {
			// Another deploy is already copying the shadow; wait for it
			// rather than duplicating the copy.
			waitS += d.awaitCopy(p, cs)
			continue
		}
		cs.copying = true
		d.nextShadow++
		name := fmt.Sprintf("shadow-%s-%d", tpl.Name, d.nextShadow)
		t0 := p.Now()
		shadow, cerr := d.plane.FullCopyTemplate(p, tpl, ds, name)
		copyS += p.Now() - t0
		if cerr != nil {
			d.endCopy(cs)
			return nil, waitS, copyS, cerr
		}
		d.shadowCopies++
		cs.base = shadow.ID
		cs.count = 0
		d.registerBase(tpl.ID, ds.ID)
		d.endCopy(cs)
		break
	}
	cs.count++
	return inv.Template(cs.base), waitS, copyS, nil
}

// awaitCopy parks p behind cs's shadow copy until a re-check finds that
// p need not wait for a further copy, and returns the seconds it waited.
func (d *Director) awaitCopy(p *sim.Proc, cs *chainState) float64 {
	w := d.waiterFree
	if w == nil {
		w = &shadowWaiter{}
		w.recheck = func() { d.recheck(w) }
	} else {
		d.waiterFree = w.next
	}
	w.p, w.cs, w.waitS = p, cs, 0
	cs.park(w, p.Now())
	p.Park()
	waitS := w.waitS
	w.p, w.cs, w.next = nil, nil, d.waiterFree
	d.waiterFree = w
	return waitS
}

// park appends w to the deploys waiting for cs's copy.
func (cs *chainState) park(w *shadowWaiter, now sim.Time) {
	w.since, w.next = now, nil
	if cs.tail == nil {
		cs.head = w
	} else {
		cs.tail.next = w
	}
	cs.tail = w
}

// endCopy ends cs's shadow copy. Each deploy parked on it re-checks in
// the (time, sequence) slot a broadcast wakeup would give it.
func (d *Director) endCopy(cs *chainState) {
	cs.copying = false
	for w := cs.head; w != nil; w = w.next {
		d.env.Schedule(0, w.recheck)
	}
	cs.head, cs.tail = nil, nil
}

// recheck is what a woken waiter would do first: it adds the piece of
// the wait that just ended (one piece per copy, in the order a waiting
// process sums them), then either parks w behind the next copy, if one
// is in flight and the chain is still blocked, or resumes w's deploy.
func (d *Director) recheck(w *shadowWaiter) {
	now := d.env.Now()
	w.waitS += now - w.since
	if cs := w.cs; cs.copying && (cs.base == inventory.None || cs.count >= d.maxChain()) {
		cs.park(w, now)
		return
	}
	d.env.Unpark(w.p)
}

// DeployResult reports one DeployVApp call.
type DeployResult struct {
	VApp  *inventory.VApp
	Tasks []*mgmt.Task // per-VM deploy (and power-on) tasks, in order
	Err   error        // first error encountered, if any
}

// DeployVApp provisions a vApp of nVMs instances of tpl for org, placing
// each VM independently, and optionally powers them on. VM-level deploys
// proceed in parallel, as director cells do. The vApp is subject to the
// configured lease.
func (d *Director) DeployVApp(p *sim.Proc, org string, tpl *inventory.Template, nVMs int, powerOn bool) DeployResult {
	if nVMs <= 0 {
		return DeployResult{Err: fmt.Errorf("clouddir: vApp size %d", nVMs)}
	}
	if q := d.cfg.OrgQuotaVMs; q > 0 && d.orgVMs[org]+nVMs > q {
		d.quotaRejects++
		return DeployResult{Err: fmt.Errorf("clouddir: org %s over quota (%d live + %d requested > %d)",
			org, d.orgVMs[org], nVMs, q)}
	}
	// Reserve quota for the whole vApp up front; failures are returned
	// below once the per-VM outcomes are known.
	d.orgVMs[org] += nVMs
	inv := d.plane.Inventory()
	submit := p.Now()
	d.nextVApp++
	// One string names the vApp ("vapp-N") and its first VM ("vapp-N-vm0").
	var buf [32]byte
	vm0 := string(append(strconv.AppendInt(append(buf[:0], "vapp-"...), d.nextVApp, 10), "-vm0"...))
	va := inv.AddVApp(vm0[:len(vm0)-len("-vm0")], org)
	res := DeployResult{VApp: va, Tasks: make([]*mgmt.Task, 0, nVMs*2)}

	// Workers deploy every member but the last, which the caller deploys
	// itself. Workers take members in start order, so the caller starts
	// in the slot a last worker's start would take, and resumes where
	// the last member's finish would wake it.
	var f *deployFrame
	var one [1]vmOutcome
	slots := one[:]
	if nVMs > 1 {
		f = d.getFrame(nVMs)
		f.org, f.tpl, f.va, f.vm0, f.powerOn, f.submit = org, tpl, va, vm0, powerOn, submit
		for i := 1; i < nVMs; i++ {
			d.env.Go("deploy", f.work)
		}
		slots = f.slots
	}
	p.Yield()
	slots[nVMs-1] = d.deployOne(p, org, memberName(vm0, va, nVMs-1), tpl, va, powerOn, submit)
	if f != nil && f.remaining > 0 {
		f.done.Wait(p)
	} else {
		p.Yield()
	}
	deployed := 0
	for i := range slots {
		if slots[i].deploy != nil {
			res.Tasks = append(res.Tasks, slots[i].deploy)
			if slots[i].deploy.Err == nil {
				deployed++
			}
		}
		if slots[i].pwr != nil {
			res.Tasks = append(res.Tasks, slots[i].pwr)
		}
		if slots[i].err != nil && res.Err == nil {
			res.Err = slots[i].err
		}
	}
	if f != nil {
		d.putFrame(f)
	}
	d.orgVMs[org] -= nVMs - deployed // release quota held by failures
	if d.cfg.LeaseS > 0 {
		d.liveVApps[va.ID] = true
		vaID := va.ID
		d.env.GoAfter(d.cfg.LeaseS, func(lp *sim.Proc) {
			if !d.liveVApps[vaID] {
				return
			}
			d.leaseExpiries++
			d.DeleteVApp(lp, inv.VApp(vaID), "system")
		})
	}
	return res
}

// vmOutcome is the result of deploying one vApp member VM.
type vmOutcome struct {
	deploy *mgmt.Task
	pwr    *mgmt.Task
	err    error
}

// deployOne provisions a single vApp member VM.
func (d *Director) deployOne(p *sim.Proc, org, name string, tpl *inventory.Template, va *inventory.VApp, powerOn bool, submit sim.Time) (out vmOutcome) {
	// The request's cell index (the round-robin counter before the cell
	// stage consumes it) doubles as its preferred management shard.
	prefShard := d.rr % d.plane.ShardCount()
	ctx := d.reqCtx(p, org, ops.KindDeploy, submit)

	host := d.placeHost(tpl.MemMB, prefShard)
	if host == nil {
		out.err = fmt.Errorf("clouddir: no host fits %s (%d MB)", name, tpl.MemMB)
		return out
	}
	mode := ops.FullClone
	needGB := tpl.DiskGB
	if d.cfg.FastProvisioning {
		mode = ops.LinkedClone
		needGB = d.plane.Storage().Policy.DeltaDiskGB
	}
	var ds *inventory.Datastore
	if mode == ops.LinkedClone {
		// Linked clones are placed next to an existing base for their
		// template whenever one fits — shadow full-copies are paid only
		// when every datastore with a base is full or a chain hits its
		// limit, matching how directors avoid gratuitous shadow churn.
		ds = d.placeNearBase(tpl, needGB)
		if ds == nil {
			d.placementFallbacks++
		}
	}
	if ds == nil {
		ds = d.placeDatastore(needGB, org)
	}
	if ds == nil {
		out.err = fmt.Errorf("clouddir: no datastore fits %s (%.1f GB)", name, needGB)
		return out
	}
	inv := d.plane.Inventory()
	inv.Reserve(ds.ID, needGB)
	defer inv.Reserve(ds.ID, -needGB)
	base := tpl
	if mode == ops.LinkedClone {
		// A shadow copy, when needed, is data-plane work this deploy
		// pays for; waiting for a shadow someone else is copying is
		// queue time. Both fold into the task's breakdown.
		b, waitS, copyS, err := d.baseFor(p, tpl, ds)
		ctx.Pre.Queue += waitS
		ctx.Pre.Data += copyS
		if err != nil {
			out.err = err
			return out
		}
		base = b
	}
	vm, task := d.plane.DeployVM(p, name, base, host, ds, mode, ctx)
	out.deploy = task
	if task.Err != nil {
		out.err = task.Err
		return out
	}
	vm.VAppID = va.ID
	va.VMs = append(va.VMs, vm.ID)
	if powerOn {
		pctx := d.reqCtx(p, org, ops.KindPowerOn, p.Now())
		out.pwr = d.plane.PowerOn(p, vm, pctx)
		if out.pwr.Err != nil {
			out.err = out.pwr.Err
		}
	}
	return out
}

// PowerVApp powers every VM of va on (or off), paying one cell stage per
// VM like the deploy path does, and returns how many tasks it issued and
// the first of their errors. VMs already in the requested state are
// skipped — vApp power ops are idempotent at the director, matching how
// self-service APIs expose them.
func (d *Director) PowerVApp(p *sim.Proc, va *inventory.VApp, org string, on bool) (tasks int, err error) {
	inv := d.plane.Inventory()
	var buf [8]inventory.ID
	for _, id := range append(buf[:0], va.VMs...) {
		vm := inv.VM(id)
		if vm == nil {
			continue
		}
		if on {
			if vm.State == inventory.VMPoweredOn {
				continue
			}
			ctx := d.reqCtx(p, org, ops.KindPowerOn, p.Now())
			tasks, err = tally(tasks, err, d.plane.PowerOn(p, vm, ctx))
		} else {
			if vm.State != inventory.VMPoweredOn {
				continue
			}
			ctx := d.reqCtx(p, org, ops.KindPowerOff, p.Now())
			tasks, err = tally(tasks, err, d.plane.PowerOff(p, vm, ctx))
		}
	}
	return tasks, err
}

// tally counts t into a (tasks, first error) pair.
func tally(tasks int, err error, t *mgmt.Task) (int, error) {
	if err == nil {
		err = t.Err
	}
	return tasks + 1, err
}

// DeleteVApp powers off and destroys every VM of va, then removes the
// vApp. It returns how many tasks it issued and the first of their
// errors.
func (d *Director) DeleteVApp(p *sim.Proc, va *inventory.VApp, org string) (tasks int, err error) {
	inv := d.plane.Inventory()
	if d.cfg.LeaseS > 0 {
		delete(d.liveVApps, va.ID)
	}
	// Copy: destroy mutates va.VMs.
	var buf [8]inventory.ID
	for _, id := range append(buf[:0], va.VMs...) {
		vm := inv.VM(id)
		if vm == nil {
			continue
		}
		if vm.State == inventory.VMPoweredOn {
			ctx := d.reqCtx(p, org, ops.KindPowerOff, p.Now())
			tasks, err = tally(tasks, err, d.plane.PowerOff(p, vm, ctx))
		}
		ctx := d.reqCtx(p, org, ops.KindDestroy, p.Now())
		task := d.plane.Destroy(p, vm, ctx)
		tasks, err = tally(tasks, err, task)
		if task.Err == nil {
			d.orgVMs[va.OrgName]--
		}
	}
	inv.RemoveVApp(va)
	return tasks, err
}

// OrgLiveVMs returns the director's quota accounting for org (live plus
// in-flight VMs deployed through the director).
func (d *Director) OrgLiveVMs(org string) int { return d.orgVMs[org] }

// PublishTemplate copies tpl into the catalog on dst as a new template —
// the explicit catalog operation self-service clouds perform when an org
// shares an image.
func (d *Director) PublishTemplate(p *sim.Proc, tpl *inventory.Template, dst *inventory.Datastore, name, org string) (*inventory.Template, *mgmt.Task) {
	submit := p.Now()
	ctx := d.reqCtx(p, org, ops.KindCatalogPublish, submit)
	req := ops.Request{Kind: ops.KindCatalogPublish, TemplateID: tpl.ID}
	req.Org = ctx.Org
	req.Submit = float64(ctx.Submit)
	if req.Submit == 0 {
		req.Submit = float64(p.Now())
	}
	var out *inventory.Template
	task := d.plane.Execute(p, mgmt.ExecSpec{
		Req:         req,
		LockTargets: []inventory.ID{tpl.ID, dst.ID},
		Pre:         ctx.Pre,
		Body: func(p *sim.Proc) error {
			t, err := d.plane.FullCopyTemplate(p, tpl, dst, name)
			out = t
			return err
		},
	})
	return out, task
}

// StartRebalancer launches the background datastore rebalancer if the
// configuration enables it.
func (d *Director) StartRebalancer() {
	if d.cfg.RebalanceThreshold <= 0 {
		return
	}
	d.env.Go("rebalancer", func(p *sim.Proc) {
		for {
			p.Sleep(d.cfg.RebalanceCheckS)
			d.rebalanceOnce(p)
		}
	})
}

// rebalanceOnce runs a single rebalance pass.
func (d *Director) rebalanceOnce(p *sim.Proc) {
	pool := d.plane.Storage()
	before := pool.Imbalance()
	if before <= d.cfg.RebalanceThreshold || d.rebalancing {
		// Skip when balanced or when a previous pass is still moving
		// VMs — passes are long (bulk copies under contention) and
		// overlapping passes would fight over the same candidates.
		return
	}
	d.rebalancing = true
	defer func() { d.rebalancing = false }()
	d.rebalanceStarts++
	inv := d.plane.Inventory()
	start := p.Now()
	req := ops.Request{Kind: ops.KindRebalance, Org: "system", Submit: float64(p.Now())}
	moved := 0
	d.plane.Execute(p, mgmt.ExecSpec{
		Req: req,
		Body: func(p *sim.Proc) error {
			for i := 0; i < d.cfg.RebalanceBatch; i++ {
				srcID, dstID := pool.MostAndLeastFilled()
				if srcID == inventory.None || pool.Imbalance() <= d.cfg.RebalanceThreshold/2 {
					break
				}
				src := inv.Datastore(srcID)
				dst := inv.Datastore(dstID)
				vm := d.pickMovable(src, dst)
				if vm == nil {
					break
				}
				d.rebalanceMoves++
				ctx := mgmt.ReqCtx{Org: "system", Submit: p.Now()}
				task := d.plane.StorageMigrate(p, vm, dst, ctx)
				if task.Err != nil {
					return task.Err
				}
				moved++
			}
			return nil
		},
	})
	if moved > 0 {
		d.rebalances = append(d.rebalances, RebalanceEvent{
			Start: start, End: p.Now(), Moved: moved,
			ImbalanceBefore: before, ImbalanceAfter: pool.Imbalance(),
		})
	} else {
		// Imbalance above threshold but nothing movable: linked-clone
		// clouds reach this state when the imbalance is carried by
		// shadow templates, which are pinned — a design pressure the
		// reconfiguration experiments report.
		d.rebalanceFutile++
	}
}

// pickMovable returns the largest full-clone VM on src that fits dst, or
// nil. Linked clones are pinned to their base's datastore and are not
// rebalancing candidates.
func (d *Director) pickMovable(src, dst *inventory.Datastore) *inventory.VM {
	inv := d.plane.Inventory()
	var best *inventory.VM
	for _, id := range src.VMs {
		vm := inv.VM(id)
		if vm == nil || vm.LinkedParent != inventory.None {
			continue
		}
		if vm.DiskGB > dst.FreeGB() {
			continue
		}
		if best == nil || vm.DiskGB > best.DiskGB {
			best = vm
		}
	}
	return best
}

// Stats is the director's activity summary.
type Stats struct {
	VAppsDeployed      int64
	ShadowCopies       int64
	LeaseExpiries      int64
	RebalanceStarts    int64 // passes begun (completed passes appear in Rebalances)
	RebalanceMoves     int64 // storage-migrations begun by the rebalancer
	RebalanceFutile    int64 // passes that found no movable candidate
	QuotaRejects       int64 // vApp requests refused by tenant quota
	PlacementFallbacks int64 // linked-clone deploys with no existing base to land next to
	StickyOverflows    int64 // sticky-org placements whose pinned datastore was full
	Rebalances         []RebalanceEvent
	Cells              []sim.ResourceStats
}

// Stats returns accumulated statistics.
func (d *Director) Stats() Stats {
	s := Stats{
		VAppsDeployed:      d.nextVApp,
		ShadowCopies:       d.shadowCopies,
		LeaseExpiries:      d.leaseExpiries,
		RebalanceStarts:    d.rebalanceStarts,
		RebalanceMoves:     d.rebalanceMoves,
		RebalanceFutile:    d.rebalanceFutile,
		QuotaRejects:       d.quotaRejects,
		PlacementFallbacks: d.placementFallbacks,
		StickyOverflows:    d.stickyOverflows,
		Rebalances:         append([]RebalanceEvent(nil), d.rebalances...),
	}
	for _, c := range d.cells {
		s.Cells = append(s.Cells, c.Stats())
	}
	return s
}
