package clouddir

import (
	"math"
	"strings"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/testfix"
)

type fixture struct {
	env *sim.Env
	inv *inventory.Inventory
	pl  *plane.Plane
	dir *Director
	tpl *inventory.Template
	ds  []*inventory.Datastore
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	return placementFixture(t, testfix.Options{Hosts: 4, HostMemMB: 262144}, 1, cfg)
}

func TestDeployVAppLinked(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var res DeployResult
	f.env.Go("u", func(p *sim.Proc) {
		res = f.dir.DeployVApp(p, "orgA", f.tpl, 3, true)
	})
	f.env.Run(sim.Forever)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.VApp.VMs) != 3 {
		t.Fatalf("vApp VMs = %d", len(res.VApp.VMs))
	}
	if len(res.Tasks) != 6 { // 3 deploys + 3 power-ons
		t.Fatalf("tasks = %d", len(res.Tasks))
	}
	for _, id := range res.VApp.VMs {
		vm := f.inv.VM(id)
		if vm.State != inventory.VMPoweredOn {
			t.Fatalf("vm state = %v", vm.State)
		}
		if vm.LinkedParent == inventory.None || vm.ChainLen != 1 {
			t.Fatalf("vm not linked: parent=%v chain=%d", vm.LinkedParent, vm.ChainLen)
		}
	}
	// Cell stage must be present in deploy breakdowns.
	for _, task := range res.Tasks {
		if task.Breakdown.Cell <= 0 {
			t.Fatalf("task %v missing cell stage: %+v", task.Req.Kind, task.Breakdown)
		}
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeployVAppFullClone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastProvisioning = false
	f := newFixture(t, cfg)
	var res DeployResult
	f.env.Go("u", func(p *sim.Proc) {
		res = f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
	})
	f.env.Run(sim.Forever)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	vm := f.inv.VM(res.VApp.VMs[0])
	if vm.LinkedParent != inventory.None {
		t.Fatal("full-clone VM has linked parent")
	}
	if vm.DiskGB != 20 {
		t.Fatalf("disk = %v", vm.DiskGB)
	}
	// Full clone data time must dominate the deploy.
	dep := res.Tasks[0]
	if dep.Breakdown.Data < dep.Latency()*0.5 {
		t.Fatalf("full deploy not data-dominated: %+v", dep.Breakdown)
	}
}

func TestShadowCreatedOnForeignDatastore(t *testing.T) {
	// Template lives on ds0. Force placement to ds1 by filling ds0 with a
	// filler template: the first linked clone on ds1 creates a shadow.
	f := newFixture(t, DefaultConfig())
	f.inv.AddTemplate(f.ds[0], "filler", f.ds[0].FreeGB()-0.5, 1024, 1)
	var res DeployResult
	f.env.Go("u", func(p *sim.Proc) {
		res = f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
	})
	f.env.Run(sim.Forever)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := f.dir.Stats()
	if st.ShadowCopies != 1 {
		t.Fatalf("shadow copies = %d, want 1", st.ShadowCopies)
	}
	vm := f.inv.VM(res.VApp.VMs[0])
	if vm.DatastoreID != f.ds[1].ID {
		t.Fatal("vm not on ds1")
	}
	shadow := f.inv.Template(vm.LinkedParent)
	if shadow == nil || shadow.DatastoreID != f.ds[1].ID {
		t.Fatal("linked parent is not a shadow on ds1")
	}
	// The shadow deploy paid a full-copy data price.
	if res.Tasks[0].Breakdown.Data < 50 {
		t.Fatalf("shadow deploy data = %v, want ~100s", res.Tasks[0].Breakdown.Data)
	}
}

func TestChainLimitForcesNewShadow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxChainLen = 3
	f := newFixture(t, cfg)
	// Keep placement on ds0 (where the template lives) by filling ds1.
	f.inv.AddTemplate(f.ds[1], "filler", f.ds[1].FreeGB()-0.5, 1024, 1)
	f.env.Go("u", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
			if res.Err != nil {
				t.Errorf("deploy %d: %v", i, res.Err)
			}
		}
	})
	f.env.Run(sim.Forever)
	// Clones 1-3 chain off the template; clone 4 forces shadow #1 (then
	// clones 4-6 chain off it); clone 7 forces shadow #2.
	if got := f.dir.Stats().ShadowCopies; got != 2 {
		t.Fatalf("shadow copies = %d, want 2", got)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteVAppCleansUp(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("u", func(p *sim.Proc) {
		res := f.dir.DeployVApp(p, "orgA", f.tpl, 2, true)
		if res.Err != nil {
			t.Errorf("deploy: %v", res.Err)
			return
		}
		tasks, err := f.dir.DeleteVApp(p, res.VApp, "orgA")
		if tasks != 4 || err != nil { // 2 power-offs + 2 destroys
			t.Errorf("delete tasks = %d, err = %v", tasks, err)
		}
	})
	f.env.Run(sim.Forever)
	if n := len(f.inv.VMs()); n != 0 {
		t.Fatalf("VMs left = %d", n)
	}
	if n := len(f.inv.VApps()); n != 0 {
		t.Fatalf("vApps left = %d", n)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseExpiryUndeploys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeaseS = 1000
	f := newFixture(t, cfg)
	f.env.Go("u", func(p *sim.Proc) {
		res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, true)
		if res.Err != nil {
			t.Errorf("deploy: %v", res.Err)
		}
	})
	f.env.Run(sim.Forever)
	if n := len(f.inv.VMs()); n != 0 {
		t.Fatalf("VMs after lease expiry = %d", n)
	}
	if f.dir.Stats().LeaseExpiries != 1 {
		t.Fatalf("lease expiries = %d", f.dir.Stats().LeaseExpiries)
	}
}

func TestDeleteBeforeLeaseAvoidsDoubleFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeaseS = 1000
	f := newFixture(t, cfg)
	f.env.Go("u", func(p *sim.Proc) {
		res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, true)
		p.Sleep(10)
		f.dir.DeleteVApp(p, res.VApp, "orgA")
	})
	f.env.Run(sim.Forever) // runs past lease expiry timer
	if f.dir.Stats().LeaseExpiries != 0 {
		t.Fatalf("expiries = %d, want 0 (deleted first)", f.dir.Stats().LeaseExpiries)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishTemplate(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("u", func(p *sim.Proc) {
		tpl, task := f.dir.PublishTemplate(p, f.tpl, f.ds[1], "tpl-copy", "orgA")
		if task.Err != nil {
			t.Errorf("publish: %v", task.Err)
			return
		}
		if tpl == nil || tpl.DatastoreID != f.ds[1].ID {
			t.Error("template not created on ds1")
		}
		if task.Breakdown.Data < 50 {
			t.Errorf("publish data = %v, want ~100s", task.Breakdown.Data)
		}
		if task.Breakdown.Cell <= 0 {
			t.Error("publish missing cell stage")
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalancerMovesFullClones(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastProvisioning = false
	cfg.RebalanceThreshold = 0.02
	f := newFixture(t, cfg)
	// Load ds0 with full clones; ds1 idle. Imbalance grows past threshold.
	f.env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			// Place manually on ds0 via direct manager deploys.
			h := f.inv.Host(f.inv.Hosts()[i%4])
			vm, task := f.pl.DeployVM(p, "vm", f.tpl, h, f.ds[0], ops.FullClone, mgmt.ReqCtx{Org: "x"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
			}
			_ = vm
		}
		before := f.dir.Plane().Storage().Imbalance()
		if before < cfg.RebalanceThreshold {
			t.Errorf("setup: imbalance %v below threshold", before)
			return
		}
		f.dir.rebalanceOnce(p)
		after := f.dir.Plane().Storage().Imbalance()
		if after >= before {
			t.Errorf("rebalance did not reduce imbalance: %v -> %v", before, after)
		}
	})
	f.env.Run(sim.Forever)
	evs := f.dir.Stats().Rebalances
	if len(evs) != 1 || evs[0].Moved == 0 {
		t.Fatalf("rebalance events = %+v", evs)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalancerSkipsWhenBalanced(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("u", func(p *sim.Proc) { f.dir.rebalanceOnce(p) })
	f.env.Run(sim.Forever)
	if len(f.dir.Stats().Rebalances) != 0 {
		t.Fatal("rebalanced a balanced pool")
	}
}

func TestBackgroundRebalancerRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastProvisioning = false
	cfg.RebalanceThreshold = 0.02
	cfg.RebalanceCheckS = 500
	f := newFixture(t, cfg)
	f.dir.StartRebalancer()
	f.env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			h := f.inv.Host(f.inv.Hosts()[i%4])
			f.pl.DeployVM(p, "vm", f.tpl, h, f.ds[0], ops.FullClone, mgmt.ReqCtx{Org: "x"})
		}
	})
	f.env.Run(4000) // a few checker periods
	if len(f.dir.Stats().Rebalances) == 0 {
		t.Fatal("background rebalancer never acted")
	}
}

func TestCellQueueingUnderBurst(t *testing.T) {
	// One 1-thread cell: a burst of deploys must accumulate cell queue
	// time in their breakdowns.
	cfg := DefaultConfig()
	cfg.Cells = 1
	cfg.CellThreads = 1
	f := newFixture(t, cfg)
	var res DeployResult
	f.env.Go("u", func(p *sim.Proc) {
		res = f.dir.DeployVApp(p, "orgA", f.tpl, 6, false)
	})
	f.env.Run(sim.Forever)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	queued := 0
	for _, task := range res.Tasks {
		if task.Breakdown.Queue > 0.5 {
			queued++
		}
	}
	if queued < 4 {
		t.Fatalf("only %d deploys show cell queueing", queued)
	}
}

func TestVAppSizeValidation(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var res DeployResult
	f.env.Go("u", func(p *sim.Proc) { res = f.dir.DeployVApp(p, "o", f.tpl, 0, false) })
	f.env.Run(sim.Forever)
	if res.Err == nil {
		t.Fatal("expected error for empty vApp")
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	bad := DefaultConfig()
	bad.Cells = 0
	if _, err := New(f.env, f.pl, ops.DefaultCostModel(), rng.New(1), policy.DefaultPlacement(), bad); err == nil {
		t.Fatal("expected error")
	}
	bad = DefaultConfig()
	bad.RebalanceCheckS = 0
	if _, err := New(f.env, f.pl, ops.DefaultCostModel(), rng.New(1), policy.DefaultPlacement(), bad); err == nil {
		t.Fatal("expected rebalancer config error")
	}
	bad = DefaultConfig()
	bad.MaxChainLen = -1
	if _, err := New(f.env, f.pl, ops.DefaultCostModel(), rng.New(1), policy.DefaultPlacement(), bad); err == nil {
		t.Fatal("expected negative chain length error")
	}
	bad = DefaultConfig()
	bad.LeaseS = -1
	if _, err := New(f.env, f.pl, ops.DefaultCostModel(), rng.New(1), policy.DefaultPlacement(), bad); err == nil || !strings.Contains(err.Error(), "negative lease") {
		t.Fatalf("negative lease: err = %v", err)
	}
	bad = DefaultConfig()
	bad.OrgQuotaVMs = -1
	if _, err := New(f.env, f.pl, ops.DefaultCostModel(), rng.New(1), policy.DefaultPlacement(), bad); err == nil || !strings.Contains(err.Error(), "negative org quota") {
		t.Fatalf("negative org quota: err = %v", err)
	}
}

func TestLinkedDeployThroughputExceedsFull(t *testing.T) {
	// The paper's headline, end to end at small scale: 8 deploys complete
	// far sooner with fast provisioning than with full clones.
	run := func(fast bool) sim.Time {
		cfg := DefaultConfig()
		cfg.FastProvisioning = fast
		f := newFixture(t, cfg)
		f.env.Go("u", func(p *sim.Proc) {
			res := f.dir.DeployVApp(p, "orgA", f.tpl, 8, false)
			if res.Err != nil {
				t.Errorf("deploy(fast=%v): %v", fast, res.Err)
			}
		})
		return f.env.Run(sim.Forever)
	}
	full := run(false)
	linked := run(true)
	if math.Abs(float64(linked)) < 1 {
		t.Fatalf("linked run suspiciously fast: %v", linked)
	}
	if full < 3*linked {
		t.Fatalf("full %v not ≫ linked %v", full, linked)
	}
}

func TestOrgQuotaEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OrgQuotaVMs = 3
	f := newFixture(t, cfg)
	f.env.Go("u", func(p *sim.Proc) {
		res1 := f.dir.DeployVApp(p, "orgA", f.tpl, 2, false)
		if res1.Err != nil {
			t.Errorf("first deploy: %v", res1.Err)
			return
		}
		if got := f.dir.OrgLiveVMs("orgA"); got != 2 {
			t.Errorf("live = %d", got)
		}
		// 2 live + 2 requested > 3: rejected.
		res2 := f.dir.DeployVApp(p, "orgA", f.tpl, 2, false)
		if res2.Err == nil {
			t.Error("over-quota deploy accepted")
		}
		// Another org is unaffected.
		if res3 := f.dir.DeployVApp(p, "orgB", f.tpl, 2, false); res3.Err != nil {
			t.Errorf("orgB deploy: %v", res3.Err)
		}
		// Deleting frees quota.
		f.dir.DeleteVApp(p, res1.VApp, "orgA")
		if got := f.dir.OrgLiveVMs("orgA"); got != 0 {
			t.Errorf("live after delete = %d", got)
		}
		if res4 := f.dir.DeployVApp(p, "orgA", f.tpl, 3, false); res4.Err != nil {
			t.Errorf("post-delete deploy: %v", res4.Err)
		}
	})
	f.env.Run(sim.Forever)
	if f.dir.Stats().QuotaRejects != 1 {
		t.Fatalf("quota rejects = %d", f.dir.Stats().QuotaRejects)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaReleasedOnDeployFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OrgQuotaVMs = 4
	f := newFixture(t, cfg)
	// Fill every datastore so deploys fail placement.
	for _, id := range f.inv.Datastores() {
		ds := f.inv.Datastore(id)
		f.inv.AddTemplate(ds, "filler", ds.FreeGB()-0.1, 1024, 1)
	}
	f.env.Go("u", func(p *sim.Proc) {
		res := f.dir.DeployVApp(p, "orgA", f.tpl, 2, false)
		if res.Err == nil {
			t.Error("deploy succeeded on full datastores")
		}
		if got := f.dir.OrgLiveVMs("orgA"); got != 0 {
			t.Errorf("quota leaked: %d", got)
		}
	})
	f.env.Run(sim.Forever)
}

func TestMaintenanceHostSkippedByPlacement(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("u", func(p *sim.Proc) {
		// Fence every host but the last.
		hosts := f.inv.Hosts()
		for _, id := range hosts[:len(hosts)-1] {
			f.inv.SetHostMaintenance(f.inv.Host(id), true)
		}
		res := f.dir.DeployVApp(p, "orgA", f.tpl, 2, false)
		if res.Err != nil {
			t.Errorf("deploy: %v", res.Err)
			return
		}
		for _, vmID := range res.VApp.VMs {
			if f.inv.VM(vmID).HostID != hosts[len(hosts)-1] {
				t.Error("VM placed on fenced host")
			}
		}
	})
	f.env.Run(sim.Forever)
}

func TestStickyOrgPlacementIsDeterministicPerOrg(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlaceStickyOrg
	cfg.FastProvisioning = false
	f := newFixture(t, cfg)
	var first inventory.ID
	f.env.Go("u", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			res := f.dir.DeployVApp(p, "tenant-x", f.tpl, 1, false)
			if res.Err != nil {
				t.Errorf("deploy %d: %v", i, res.Err)
				return
			}
			vm := f.inv.VM(res.VApp.VMs[0])
			if first == inventory.None {
				first = vm.DatastoreID
			} else if vm.DatastoreID != first {
				t.Errorf("tenant-x scattered: %v vs %v", vm.DatastoreID, first)
			}
		}
	})
	f.env.Run(sim.Forever)
}

func TestStickyOrgFallsBackWhenPinnedFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlaceStickyOrg
	cfg.FastProvisioning = false
	f := newFixture(t, cfg)
	// Find tenant-y's pinned datastore by deploying once, then fill it.
	f.env.Go("u", func(p *sim.Proc) {
		res := f.dir.DeployVApp(p, "tenant-y", f.tpl, 1, false)
		if res.Err != nil {
			t.Errorf("probe deploy: %v", res.Err)
			return
		}
		pinned := f.inv.Datastore(f.inv.VM(res.VApp.VMs[0]).DatastoreID)
		f.inv.AddTemplate(pinned, "filler", pinned.FreeGB()-0.5, 1024, 1)
		res2 := f.dir.DeployVApp(p, "tenant-y", f.tpl, 1, false)
		if res2.Err != nil {
			t.Errorf("fallback deploy: %v", res2.Err)
			return
		}
		if f.inv.VM(res2.VApp.VMs[0]).DatastoreID == pinned.ID {
			t.Error("deploy landed on the full pinned datastore")
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkedClonesPlaceNearBase(t *testing.T) {
	// With plenty of room everywhere, every linked clone of tpl should
	// land on tpl's home datastore (no shadows).
	f := newFixture(t, DefaultConfig())
	f.env.Go("u", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
			if res.Err != nil {
				t.Errorf("deploy: %v", res.Err)
				return
			}
			if f.inv.VM(res.VApp.VMs[0]).DatastoreID != f.tpl.DatastoreID {
				t.Error("linked clone strayed from its base datastore")
			}
		}
	})
	f.env.Run(sim.Forever)
	if f.dir.Stats().ShadowCopies != 0 {
		t.Fatalf("shadows = %d, want 0", f.dir.Stats().ShadowCopies)
	}
}

func TestDeployCycleAllocBudget(t *testing.T) {
	// One linked-clone vApp deployed and deleted makes seven: the one
	// string naming the vApp and its VM, the vApp and its VM list, the
	// DeployResult's task slice, the VM, and the deploy and destroy
	// tasks. A per-VM worker closure, a separate vApp name or a delete
	// task slice each adds one; Execute leaking its spec adds the
	// lock-target slices, body closures and the deployed VM's variable.
	f := newFixture(t, DefaultConfig())
	var allocs float64
	f.env.Go("u", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			f.dir.DeleteVApp(p, res.VApp, "orgA")
		})
	})
	f.env.Run(sim.Forever)
	const budget = 7
	if allocs > budget {
		t.Fatalf("deploy+delete cycle allocates %.2f/op, want <= %d", allocs, budget)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
