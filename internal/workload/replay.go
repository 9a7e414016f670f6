package workload

import (
	"cmp"
	"fmt"
	"slices"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/trace"
)

// Replayer re-issues a recorded management trace against a (possibly
// differently configured) cloud: the what-if tool the characterization
// methodology enables. Records are dispatched open-loop at their recorded
// submit times, so a smaller control plane shows up as queueing and
// latency, exactly as it would have in production.
//
// Entity identity does not survive across runs, so targets are remapped
// structurally: deploys map the recorded template reference onto the new
// catalog (by order), and VM-scoped operations are applied to a live VM
// of the same tenant, chosen round-robin. Records that cannot be mapped
// (an op for a tenant with no live VMs, or a system-internal op the new
// control plane regenerates itself) are counted, not silently dropped.
type Replayer struct {
	env     *sim.Env
	dir     *clouddir.Director
	records []trace.Record

	// per-org state
	vapps map[string][]inventory.ID // live vApp ring per org
	rrIdx map[string]int
	stats ReplayStats
}

// ReplayStats counts replay dispatch outcomes.
type ReplayStats struct {
	Issued    int64            // operations dispatched
	Unmapped  int64            // records with no live target in the new run
	SystemOps int64            // internal ops skipped (the new run makes its own)
	ByKind    map[string]int64 // issued, by kind
}

// NewReplayer prepares a replay of records against dir. Records are
// copied and sorted by submit time, ties in trace order. The sort moves
// 4-byte indexes rather than the records, then gathers the copy.
func NewReplayer(env *sim.Env, dir *clouddir.Director, records []trace.Record) (*Replayer, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if len(dir.Plane().Inventory().Templates()) == 0 {
		return nil, fmt.Errorf("workload: inventory has no templates")
	}
	idx := make([]int32, len(records))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(records[a].Submit, records[b].Submit), cmp.Compare(a, b))
	})
	cp := make([]trace.Record, len(records))
	for i, j := range idx {
		cp[i] = records[j]
	}
	return &Replayer{
		env: env, dir: dir, records: cp,
		vapps: make(map[string][]inventory.ID),
		rrIdx: make(map[string]int),
		stats: ReplayStats{ByKind: make(map[string]int64)},
	}, nil
}

// Stats returns dispatch counts accumulated so far.
func (r *Replayer) Stats() ReplayStats { return r.stats }

// Start launches the replay driver process. Dispatch is open-loop: each
// record fires at its recorded submit time regardless of how the previous
// ones are progressing.
func (r *Replayer) Start() {
	r.env.Go("replay", func(p *sim.Proc) {
		for _, rec := range r.records {
			if at := sim.Time(rec.Submit); at > p.Now() {
				p.Sleep(at - p.Now())
			}
			r.dispatch(rec)
		}
	})
}

func (r *Replayer) dispatch(rec trace.Record) {
	kind, err := rec.OpKind()
	if err != nil {
		r.stats.Unmapped++
		return
	}
	switch kind {
	case ops.KindDeploy:
		r.stats.Issued++
		r.stats.ByKind[rec.Kind]++
		org := rec.Org
		tplRef := rec.Template
		r.env.Go("replay-deploy", func(p *sim.Proc) {
			inv := r.dir.Plane().Inventory()
			tpls := inv.Templates()
			tpl := inv.Template(tpls[int(tplRef)%len(tpls)])
			res := r.dir.DeployVApp(p, org, tpl, 1, true)
			if res.Err == nil {
				r.vapps[org] = append(r.vapps[org], res.VApp.ID)
			} else if res.VApp != nil && inv.VApp(res.VApp.ID) != nil {
				r.dir.DeleteVApp(p, res.VApp, org)
			}
		})
	case ops.KindDestroy:
		va := r.popVApp(rec.Org)
		if va == inventory.None {
			r.stats.Unmapped++
			return
		}
		r.stats.Issued++
		r.stats.ByKind[rec.Kind]++
		org := rec.Org
		r.env.Go("replay-destroy", func(p *sim.Proc) {
			inv := r.dir.Plane().Inventory()
			if v := inv.VApp(va); v != nil {
				r.dir.DeleteVApp(p, v, org)
			}
		})
	case ops.KindPowerOn, ops.KindPowerOff, ops.KindReconfigure,
		ops.KindSnapshotCreate, ops.KindSnapshotRemove, ops.KindMigrate,
		ops.KindSuspend, ops.KindResume:
		vmID := r.pickVM(rec.Org)
		if vmID == inventory.None {
			r.stats.Unmapped++
			return
		}
		r.stats.Issued++
		r.stats.ByKind[rec.Kind]++
		org := rec.Org
		r.env.Go("replay-op", func(p *sim.Proc) {
			r.applyVMOp(p, kind, vmID, org)
		})
	default:
		// Rebalance, consolidation, shadow/catalog maintenance: the
		// replayed control plane generates these itself.
		r.stats.SystemOps++
	}
}

// popVApp removes and returns the oldest live vApp of org.
func (r *Replayer) popVApp(org string) inventory.ID {
	inv := r.dir.Plane().Inventory()
	ring := r.vapps[org]
	for len(ring) > 0 {
		id := ring[0]
		ring = ring[1:]
		if inv.VApp(id) != nil {
			r.vapps[org] = ring
			return id
		}
	}
	r.vapps[org] = ring
	return inventory.None
}

// pickVM returns a live VM of org, round-robin over its vApps. Dead
// vApp IDs anywhere in the ring (popVApp only trims the front, but
// lease expiry and failed-deploy cleanup kill vApps mid-ring) are
// pruned in place as they are encountered, so the ring holds only live
// entries and pickVM stays O(live) instead of spinning over tombstones
// on every op. The round-robin cursor advances only past live entries,
// which keeps the visit order over survivors identical to the
// pre-pruning behavior when no dead entries are present.
func (r *Replayer) pickVM(org string) inventory.ID {
	inv := r.dir.Plane().Inventory()
	ring := r.vapps[org]
	for tries := len(ring); tries > 0 && len(ring) > 0; tries-- {
		idx := r.rrIdx[org] % len(ring)
		va := inv.VApp(ring[idx])
		if va == nil {
			ring = append(ring[:idx], ring[idx+1:]...)
			r.vapps[org] = ring
			continue
		}
		r.rrIdx[org]++
		if len(va.VMs) == 0 {
			continue
		}
		return va.VMs[0]
	}
	return inventory.None
}

func (r *Replayer) applyVMOp(p *sim.Proc, kind ops.Kind, vmID inventory.ID, org string) {
	pl := r.dir.Plane()
	inv := pl.Inventory()
	vm := inv.VM(vmID)
	if vm == nil {
		return
	}
	ctx := mgmt.ReqCtx{Org: org}
	switch kind {
	case ops.KindPowerOn:
		if vm.State == inventory.VMPoweredOff {
			pl.PowerOn(p, vm, ctx)
		}
	case ops.KindPowerOff:
		if vm.State == inventory.VMPoweredOn {
			pl.PowerOff(p, vm, ctx)
		}
	case ops.KindReconfigure:
		pl.Reconfigure(p, vm, ctx)
	case ops.KindSnapshotCreate:
		pl.SnapshotCreate(p, vm, ctx)
	case ops.KindSnapshotRemove:
		if vm.Snapshots > 0 {
			pl.SnapshotRemove(p, vm, ctx)
		}
	case ops.KindMigrate:
		if dst := r.pickMigrationTarget(vm); dst != nil {
			pl.Migrate(p, vm, dst, ctx)
		}
	case ops.KindSuspend:
		if vm.State == inventory.VMPoweredOn {
			pl.Suspend(p, vm, ctx)
		}
	case ops.KindResume:
		if vm.State == inventory.VMSuspended {
			pl.Resume(p, vm, ctx)
		}
	}
}

// pickMigrationTarget finds the most-free in-service host other than
// the VM's current one via the capacity index — O(log hosts) instead
// of the O(hosts) scan it replaces (pickMigrationTargetLinear, kept in
// policy_equiv_test.go as the equivalence reference).
func (r *Replayer) pickMigrationTarget(vm *inventory.VM) *inventory.Host {
	inv := r.dir.Plane().Inventory()
	return inv.BestHostExcluding(vm.HostID, vm.MemMB, 0)
}
