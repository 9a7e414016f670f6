package mgmt

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/hostsim"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/storage"
	"cloudmcp/internal/testfix"
)

type fixture struct {
	env   *sim.Env
	inv   *inventory.Inventory
	pool  *storage.Pool
	mgr   *Manager
	hosts []*inventory.Host
	ds    []*inventory.Datastore
	tpl   *inventory.Template
}

// newFixture builds a 2-host, 2-datastore installation with a 20 GB
// template. The cost model's CV is zeroed for deterministic stage times.
func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	fx := testfix.New(testfix.Options{})
	db, err := NewDB(fx.Env, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	agents := hostsim.NewRegistry(fx.Env, fx.Inv, cfg.HostSlots)
	mgr, err := New(fx.Env, fx.Inv, fx.Pool, agents, db, fx.Model, rng.Derive(1, "mgmt-test"), "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{env: fx.Env, inv: fx.Inv, pool: fx.Pool, mgr: mgr,
		hosts: fx.Hosts, ds: fx.DS, tpl: fx.Tpl}
}

func TestDeployFullVsLinkedShape(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var full, linked *Task
	f.env.Go("full", func(p *sim.Proc) {
		_, full = f.mgr.DeployVM(p, "vm-full", f.tpl, f.hosts[0], f.ds[0], ops.FullClone, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	f.env.Go("linked", func(p *sim.Proc) {
		_, linked = f.mgr.DeployVM(p, "vm-linked", f.tpl, f.hosts[1], f.ds[1], ops.LinkedClone, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	if full.Err != nil || linked.Err != nil {
		t.Fatalf("errs: %v %v", full.Err, linked.Err)
	}
	// Full clone: 20 GB at 200 MB/s = 102.4 s of data time.
	if math.Abs(full.Breakdown.Data-102.4) > 1 {
		t.Fatalf("full data = %v", full.Breakdown.Data)
	}
	// Linked clone: 64 MB delta write = 0.32 s.
	if math.Abs(linked.Breakdown.Data-0.32) > 0.05 {
		t.Fatalf("linked data = %v", linked.Breakdown.Data)
	}
	if full.Latency() < 5*linked.Latency() {
		t.Fatalf("full %v not ≫ linked %v", full.Latency(), linked.Latency())
	}
	// For the linked clone, control-plane time (everything but Data) must
	// be a significant share — the paper's premise.
	control := linked.Latency() - linked.Breakdown.Data
	if control < linked.Breakdown.Data/2 {
		t.Fatalf("linked control share too small: control=%v data=%v", control, linked.Breakdown.Data)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeployReservesBeforeCopy(t *testing.T) {
	// Two concurrent full deploys into a datastore with room for only one
	// must fail one of them at reservation time, not overcommit.
	f := newFixture(t, DefaultConfig())
	// Leave room for one 20 GB clone.
	if _, err := f.inv.AddVM("filler", f.hosts[1], f.ds[1], 1, 1024, f.ds[1].FreeGB()-25); err != nil {
		t.Fatal(err)
	}
	var tasks []*Task
	for i := 0; i < 2; i++ {
		f.env.Go("d", func(p *sim.Proc) {
			_, task := f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[0], f.ds[1], ops.FullClone, ReqCtx{Org: "org"})
			tasks = append(tasks, task)
		})
	}
	f.env.Run(sim.Forever)
	errs := 0
	for _, task := range tasks {
		if task.Err != nil {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("errors = %d, want 1", errs)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerCycleAndDestroy(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("life", func(p *sim.Proc) {
		vm, task := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		if task.Err != nil {
			t.Errorf("deploy: %v", task.Err)
			return
		}
		if task = f.mgr.PowerOn(p, vm, ReqCtx{Org: "org"}); task.Err != nil {
			t.Errorf("powerOn: %v", task.Err)
		}
		if vm.State != inventory.VMPoweredOn {
			t.Errorf("state = %v", vm.State)
		}
		// Destroy while powered on must fail.
		if task = f.mgr.Destroy(p, vm, ReqCtx{Org: "org"}); task.Err == nil {
			t.Error("destroy of powered-on VM succeeded")
		}
		if task = f.mgr.PowerOff(p, vm, ReqCtx{Org: "org"}); task.Err != nil {
			t.Errorf("powerOff: %v", task.Err)
		}
		if task = f.mgr.Destroy(p, vm, ReqCtx{Org: "org"}); task.Err != nil {
			t.Errorf("destroy: %v", task.Err)
		}
	})
	f.env.Run(sim.Forever)
	if got := len(f.inv.VMs()); got != 0 {
		t.Fatalf("VMs left = %d", got)
	}
	if f.mgr.TaskErrors() != 1 {
		t.Fatalf("task errors = %d, want 1 (the rejected destroy)", f.mgr.TaskErrors())
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A destroy retires its VM's lock even when another operation is queued
// on that lock behind it: the lock goes when its last holder lets go.
func TestDestroyedVMLockRetiresBehindAQueuedOp(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var destroy, powerOn *Task
	f.env.Go("deploy", func(p *sim.Proc) {
		vm, task := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		if task.Err != nil {
			t.Errorf("deploy: %v", task.Err)
			return
		}
		f.env.Go("destroy", func(p *sim.Proc) { destroy = f.mgr.Destroy(p, vm, ReqCtx{Org: "org"}) })
		f.env.Go("powerOn", func(p *sim.Proc) {
			if f.mgr.locks[vm.ID].InUse() != 1 {
				t.Error("the destroy does not hold the VM's lock")
			}
			powerOn = f.mgr.PowerOn(p, vm, ReqCtx{Org: "org"})
		})
	})
	f.env.Run(sim.Forever)
	if destroy == nil || destroy.Err != nil || powerOn == nil || powerOn.Err == nil {
		t.Fatalf("destroy %+v, power-on %+v: want the destroy to succeed and the power-on to fail", destroy, powerOn)
	}
	if n := len(f.mgr.locks); n != 0 {
		t.Fatalf("%d locks live after both operations, want 0", n)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("snap", func(p *sim.Proc) {
		vm, _ := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		before := f.ds[0].UsedGB
		if task := f.mgr.SnapshotCreate(p, vm, ReqCtx{Org: "org"}); task.Err != nil {
			t.Errorf("snapshot: %v", task.Err)
		}
		if vm.Snapshots != 1 || vm.ChainLen != 2 {
			t.Errorf("snapshots=%d chain=%d", vm.Snapshots, vm.ChainLen)
		}
		if f.ds[0].UsedGB <= before {
			t.Error("snapshot did not charge datastore")
		}
		if task := f.mgr.SnapshotRemove(p, vm, ReqCtx{Org: "org"}); task.Err != nil {
			t.Errorf("snapshot remove: %v", task.Err)
		}
		if vm.Snapshots != 0 || vm.ChainLen != 1 {
			t.Errorf("after remove snapshots=%d chain=%d", vm.Snapshots, vm.ChainLen)
		}
		if math.Abs(f.ds[0].UsedGB-before) > 1e-9 {
			t.Errorf("space not reclaimed: %v vs %v", f.ds[0].UsedGB, before)
		}
		// Removing with no snapshots errors.
		if task := f.mgr.SnapshotRemove(p, vm, ReqCtx{Org: "org"}); task.Err == nil {
			t.Error("snapshot remove with none succeeded")
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateMovesAndChargesMemCopy(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var task *Task
	f.env.Go("m", func(p *sim.Proc) {
		vm, _ := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		task = f.mgr.Migrate(p, vm, f.hosts[1], ReqCtx{Org: "org"})
		if vm.HostID != f.hosts[1].ID {
			t.Error("not moved")
		}
	})
	f.env.Run(sim.Forever)
	if task.Err != nil {
		t.Fatal(task.Err)
	}
	// Host stage = 4.0 sampled + 2048/1000 = 2.048 mem copy.
	if math.Abs(task.Breakdown.Host-6.048) > 0.01 {
		t.Fatalf("host stage = %v", task.Breakdown.Host)
	}
}

func TestStorageMigrate(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("sm", func(p *sim.Proc) {
		vm, _ := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.FullClone, ReqCtx{Org: "org"})
		task := f.mgr.StorageMigrate(p, vm, f.ds[1], ReqCtx{Org: "org"})
		if task.Err != nil {
			t.Errorf("storage migrate: %v", task.Err)
		}
		if vm.DatastoreID != f.ds[1].ID {
			t.Error("not moved")
		}
		// 20 GB at 200 MB/s = 102.4 s on the slower side.
		if math.Abs(task.Breakdown.Data-102.4) > 1 {
			t.Errorf("data = %v", task.Breakdown.Data)
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseLockingSerializes(t *testing.T) {
	runWith := func(g LockGranularity) sim.Time {
		cfg := DefaultConfig()
		cfg.Granularity = g
		f := newFixture(t, cfg)
		// Two reconfigures on different VMs (created raw to skip deploys).
		vms := make([]*inventory.VM, 2)
		for i := range vms {
			vm, err := f.inv.AddVM("vm", f.hosts[i], f.ds[i], 1, 1024, 1)
			if err != nil {
				t.Fatal(err)
			}
			vm.State = inventory.VMPoweredOff
			vms[i] = vm
		}
		for i := 0; i < 2; i++ {
			i := i
			f.env.Go("r", func(p *sim.Proc) { f.mgr.Reconfigure(p, vms[i], ReqCtx{Org: "org"}) })
		}
		return f.env.Run(sim.Forever)
	}
	coarse := runWith(GranularityCoarse)
	entity := runWith(GranularityEntity)
	// Reconfigure ≈ 0.9 mgmt + 0.2 db + 1.0 host ≈ 2.1 s. Coarse must be
	// about twice entity.
	if coarse < entity*1.7 {
		t.Fatalf("coarse %v vs entity %v: not serialized", coarse, entity)
	}
}

func TestHostGranularitySerializesPerHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Granularity = GranularityHost
	f := newFixture(t, cfg)
	// Two VMs on the same host, one on the other.
	mk := func(h *inventory.Host, d *inventory.Datastore) *inventory.VM {
		vm, err := f.inv.AddVM("vm", h, d, 1, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		vm.State = inventory.VMPoweredOff
		return vm
	}
	a0, a1, b := mk(f.hosts[0], f.ds[0]), mk(f.hosts[0], f.ds[0]), mk(f.hosts[1], f.ds[1])
	var tA0, tA1, tB *Task
	f.env.Go("a0", func(p *sim.Proc) { tA0 = f.mgr.Reconfigure(p, a0, ReqCtx{Org: "org"}) })
	f.env.Go("a1", func(p *sim.Proc) { tA1 = f.mgr.Reconfigure(p, a1, ReqCtx{Org: "org"}) })
	f.env.Go("b", func(p *sim.Proc) { tB = f.mgr.Reconfigure(p, b, ReqCtx{Org: "org"}) })
	f.env.Run(sim.Forever)
	if tB.Breakdown.Queue > 0.01 {
		t.Fatalf("other-host op queued %v", tB.Breakdown.Queue)
	}
	queued := 0
	if tA0.Breakdown.Queue > 0.5 {
		queued++
	}
	if tA1.Breakdown.Queue > 0.5 {
		queued++
	}
	if queued != 1 {
		t.Fatalf("same-host serialization: queues %v %v", tA0.Breakdown.Queue, tA1.Breakdown.Queue)
	}
}

func TestAdmissionCapQueues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	f := newFixture(t, cfg)
	vms := make([]*inventory.VM, 2)
	for i := range vms {
		vm, _ := f.inv.AddVM("vm", f.hosts[i], f.ds[i], 1, 1024, 1)
		vm.State = inventory.VMPoweredOff
		vms[i] = vm
	}
	var tasks []*Task
	for i := 0; i < 2; i++ {
		i := i
		f.env.Go("r", func(p *sim.Proc) { tasks = append(tasks, f.mgr.Reconfigure(p, vms[i], ReqCtx{Org: "org"})) })
	}
	f.env.Run(sim.Forever)
	queued := 0
	for _, task := range tasks {
		if task.Breakdown.Queue > 0.5 {
			queued++
		}
	}
	if queued != 1 {
		t.Fatalf("admission cap: %d queued, want 1", queued)
	}
	rr := f.mgr.Resources()
	if rr.Admission.MaxQueueLen != 1 {
		t.Fatalf("admission max queue = %d", rr.Admission.MaxQueueLen)
	}
}

// Every completed task reaches the task sinks and its kind's goodput row.
func TestSummaryAndSinks(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var sunk []*Task
	f.mgr.AddTaskSink(func(task *Task) { sunk = append(sunk, task) })
	f.env.Go("w", func(p *sim.Proc) {
		vm, _ := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		f.mgr.PowerOn(p, vm, ReqCtx{Org: "org"})
		f.mgr.PowerOff(p, vm, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	if len(sunk) != 3 {
		t.Fatalf("sunk = %d", len(sunk))
	}
	for _, task := range sunk {
		if task.Latency() <= 0 {
			t.Fatalf("%s latency = %v", task.Req.Kind, task.Latency())
		}
	}
	rows := f.mgr.Goodput()
	if len(rows) != 3 {
		t.Fatalf("goodput kinds = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tasks != 1 || r.OK != 1 {
			t.Fatalf("goodput = %+v", r)
		}
	}
	if f.mgr.TasksCompleted() != 3 {
		t.Fatalf("tasks = %d", f.mgr.TasksCompleted())
	}
}

func TestExecuteAllocatesOnlyItsTask(t *testing.T) {
	// Execute moves no pointer from its spec into the heap Task. Were it
	// to copy spec.Req whole (Org is a string), the spec would escape,
	// and every caller's LockTargets literal and Body closure with it.
	f := newFixture(t, DefaultConfig())
	vm, err := f.inv.AddVM("vm0", f.hosts[0], f.ds[0], 1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every field set, so the task's copy is checked field by field.
	req := ops.Request{Kind: ops.KindReconfigure, Mode: ops.LinkedClone, TemplateID: f.tpl.ID, VMID: vm.ID, Submit: 1, Org: "org"}
	rv := reflect.ValueOf(req)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("set ops.Request.%s in this test", rv.Type().Field(i).Name)
		}
	}
	var allocs float64
	var last *Task
	bodies := 0
	f.env.Go("u", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			last = f.mgr.Execute(p, ExecSpec{
				Req:         req,
				LockTargets: []inventory.ID{vm.ID},
				HostID:      vm.HostID,
				Body:        func(*sim.Proc) error { bodies++; return nil },
			})
		})
	})
	f.env.Run(sim.Forever)
	if allocs != 1 {
		t.Fatalf("Execute allocates %.2f/op, want 1 (its Task)", allocs)
	}
	if bodies != 101 || last.Err != nil {
		t.Fatalf("bodies = %d, err = %v", bodies, last.Err)
	}
	if last.Req != req {
		t.Fatalf("task request = %+v, want %+v", last.Req, req)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	bad := DefaultConfig()
	bad.Threads = 0
	if _, err := New(f.env, f.inv, f.pool, nil, nil, ops.DefaultCostModel(), rng.New(1), "", bad); err == nil {
		t.Fatal("expected config error")
	}
}

func TestConcurrentDeploysKeepInvariants(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	const n = 24
	for i := 0; i < n; i++ {
		i := i
		f.env.Go("d", func(p *sim.Proc) {
			h := f.hosts[i%2]
			d := f.ds[i%2]
			vm, task := f.mgr.DeployVM(p, "vm", f.tpl, h, d, ops.LinkedClone, ReqCtx{Org: "org"})
			if task.Err == nil {
				f.mgr.PowerOn(p, vm, ReqCtx{Org: "org"})
			}
		})
	}
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.inv.VMs()); got != n {
		t.Fatalf("VMs = %d, want %d", got, n)
	}
}

func TestGranularityString(t *testing.T) {
	if GranularityCoarse.String() != "coarse" || GranularityHost.String() != "host" || GranularityEntity.String() != "entity" {
		t.Fatal("granularity names")
	}
	if LockGranularity(9).String() == "" {
		t.Fatal("unknown granularity must stringify")
	}
	for _, g := range []LockGranularity{GranularityCoarse, GranularityHost, GranularityEntity} {
		text, err := g.MarshalText()
		if err != nil || string(text) != g.String() {
			t.Fatalf("MarshalText(%v) = %q, %v", g, text, err)
		}
		var back LockGranularity = -1
		if err := back.UnmarshalText(text); err != nil || back != g {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	var g LockGranularity
	if err := g.UnmarshalText([]byte("weird")); err == nil || !strings.Contains(err.Error(), `unknown granularity "weird"`) {
		t.Fatalf("UnmarshalText(weird) err = %v", err)
	}
}

func TestEnterMaintenanceEvacuates(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("admin", func(p *sim.Proc) {
		var vms []*inventory.VM
		for i := 0; i < 3; i++ {
			vm, task := f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "o"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
				return
			}
			f.mgr.PowerOn(p, vm, ReqCtx{Org: "o"})
			vms = append(vms, vm)
		}
		task := f.mgr.EnterMaintenance(p, f.hosts[0], ReqCtx{Org: "admin"})
		if task.Err != nil {
			t.Errorf("maintenance: %v", task.Err)
		}
		if !f.hosts[0].Maintenance {
			t.Error("host not fenced")
		}
		if len(f.hosts[0].VMs) != 0 {
			t.Errorf("host still has %d VMs", len(f.hosts[0].VMs))
		}
		for _, vm := range vms {
			if vm.HostID != f.hosts[1].ID {
				t.Errorf("vm on host %d", vm.HostID)
			}
			if vm.State != inventory.VMPoweredOn {
				t.Errorf("vm state %v after evacuation", vm.State)
			}
		}
		if task := f.mgr.EnterMaintenance(p, f.hosts[0], ReqCtx{Org: "admin"}); task.Err == nil {
			t.Error("double enter succeeded")
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEnterMaintenanceAbortsWhenNoCapacity(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("admin", func(p *sim.Proc) {
		// Fill host1 so nothing can evacuate there.
		for f.hosts[1].FreeMemMB() >= f.tpl.MemMB {
			if _, err := f.inv.AddVM("filler", f.hosts[1], f.ds[1], 1, f.tpl.MemMB, 0.1); err != nil {
				break
			}
		}
		vm, _ := f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "o"})
		task := f.mgr.EnterMaintenance(p, f.hosts[0], ReqCtx{Org: "admin"})
		if task.Err == nil {
			t.Error("maintenance succeeded without capacity")
		}
		if f.hosts[0].Maintenance {
			t.Error("fence left up after abort")
		}
		if vm.HostID != f.hosts[0].ID {
			t.Error("vm moved despite abort")
		}
	})
	f.env.Run(sim.Forever)
}

func TestWALDatabaseIntegration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Database = &mgmtdb.Config{Conns: 4, WriteS: 0.01, FlushS: 0.05, GroupWindowS: 0.01}
	f := newFixture(t, cfg)
	f.env.Go("w", func(p *sim.Proc) {
		vm, task := f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "o"})
		if task.Err != nil {
			t.Errorf("deploy: %v", task.Err)
			return
		}
		if task.Breakdown.DB <= 0 {
			t.Errorf("no DB time in breakdown: %+v", task.Breakdown)
		}
		f.mgr.PowerOn(p, vm, ReqCtx{Org: "o"})
	})
	f.env.Run(sim.Forever)
	if got := f.mgr.DB().Name(); got != "mgmt.db(wal)" {
		t.Fatalf("WAL database named %q", got)
	}
	st := f.mgr.DB().WALStats()
	// Deploy (6 writes: 4 pre + 2 post) and powerOn (3 writes: 2 + 1)
	// each commit twice.
	if st.Commits != 4 {
		t.Fatalf("commits = %d, want 4", st.Commits)
	}
	if st.Rows != 9 {
		t.Fatalf("rows = %d, want 9", st.Rows)
	}
	if st.Flushes == 0 || st.MeanCommitLat <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWALStatsAbsentByDefault(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if st := f.mgr.DB().WALStats(); st != (mgmtdb.Stats{}) {
		t.Fatalf("WAL stats %+v without Database config", st)
	}
	if got := f.mgr.DB().Name(); got != "mgmt.db" {
		t.Fatalf("aggregate database named %q", got)
	}
}

func TestSuspendResumeOps(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.env.Go("w", func(p *sim.Proc) {
		vm, _ := f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "o"})
		f.mgr.PowerOn(p, vm, ReqCtx{Org: "o"})
		task := f.mgr.Suspend(p, vm, ReqCtx{Org: "o"})
		if task.Err != nil {
			t.Errorf("suspend: %v", task.Err)
			return
		}
		// 2048 MB memory image at 200 MB/s = 10.24 s of data time.
		if math.Abs(task.Breakdown.Data-10.24) > 0.1 {
			t.Errorf("suspend data = %v", task.Breakdown.Data)
		}
		if vm.State != inventory.VMSuspended {
			t.Errorf("state = %v", vm.State)
		}
		// Double suspend rejected.
		if task := f.mgr.Suspend(p, vm, ReqCtx{Org: "o"}); task.Err == nil {
			t.Error("double suspend succeeded")
		}
		task = f.mgr.Resume(p, vm, ReqCtx{Org: "o"})
		if task.Err != nil {
			t.Errorf("resume: %v", task.Err)
		}
		if vm.State != inventory.VMPoweredOn {
			t.Errorf("state after resume = %v", vm.State)
		}
		if task := f.mgr.Resume(p, vm, ReqCtx{Org: "o"}); task.Err == nil {
			t.Error("double resume succeeded")
		}
	})
	f.env.Run(sim.Forever)
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
