package workload

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/storage"
)

// rig is a mid-size cloud: 16 hosts, 4 datastores, 4 templates.
type rig struct {
	env *sim.Env
	inv *inventory.Inventory
	pl  *plane.Plane
	dir *clouddir.Director
	// latS is the summed latency of every completed task.
	latS float64
}

func newRig(t *testing.T, seed int64, dcfg clouddir.Config) *rig {
	t.Helper()
	env := sim.NewEnv()
	inv := inventory.New()
	dc := inv.AddDatacenter("dc0")
	cl := inv.AddCluster(dc, "cl0")
	for i := 0; i < 16; i++ {
		inv.AddHost(cl, "h", 80000, 524288)
	}
	var first *inventory.Datastore
	for i := 0; i < 4; i++ {
		ds := inv.AddDatastore(dc, "ds", 20000, 300)
		if first == nil {
			first = ds
		}
	}
	for i := 0; i < 4; i++ {
		inv.AddTemplate(first, "tpl", 16, 2048, 2)
	}
	pool := storage.NewPool(env, inv)
	model := ops.DefaultCostModel()
	pl, err := plane.New(env, inv, pool, model, seed, mgmt.DefaultConfig(), plane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := clouddir.New(env, pl, model, rng.Derive(seed, "cells"), policy.DefaultPlacement(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, inv: inv, pl: pl, dir: dir}
	pl.AddTaskSink(func(task *mgmt.Task) { r.latS += task.Latency() })
	return r
}

// tasksByKind counts completed tasks per operation kind.
func (r *rig) tasksByKind() map[ops.Kind]int64 {
	kinds := map[ops.Kind]int64{}
	for _, row := range r.pl.Goodput() {
		kinds[row.Kind] = row.Tasks
	}
	return kinds
}

func runProfile(t *testing.T, pr Profile, seed int64, horizon sim.Time) (*rig, *Generator) {
	t.Helper()
	r := newRig(t, seed, clouddir.DefaultConfig())
	gen, err := NewGenerator(r.env, r.dir, pr, rng.Derive(seed, "wl:"+pr.Name), horizon)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	r.env.Run(horizon)
	return r, gen
}

func TestProfilesValidate(t *testing.T) {
	for _, pr := range []Profile{CloudA(), CloudB(), ClassicDC()} {
		if err := pr.Validate(); err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := CloudA()
	bad.VAppMin = 0
	if bad.Validate() == nil {
		t.Fatal("vApp bounds accepted")
	}
	bad = CloudA()
	bad.DiurnalAmplitude = 1.5
	if bad.Validate() == nil {
		t.Fatal("amplitude accepted")
	}
	bad = CloudB()
	bad.SessionBatch = 0
	if bad.Validate() == nil {
		t.Fatal("session config accepted")
	}
	bad = CloudA()
	bad.Orgs = 0
	if bad.Validate() == nil {
		t.Fatal("orgs accepted")
	}
}

func TestGeneratorRequiresTemplates(t *testing.T) {
	env := sim.NewEnv()
	inv := inventory.New()
	dc := inv.AddDatacenter("dc")
	cl := inv.AddCluster(dc, "cl")
	inv.AddHost(cl, "h", 10000, 8192)
	inv.AddDatastore(dc, "ds", 100, 10)
	pool := storage.NewPool(env, inv)
	model := ops.DefaultCostModel()
	pl, _ := plane.New(env, inv, pool, model, 1, mgmt.DefaultConfig(), plane.DefaultConfig())
	dir, _ := clouddir.New(env, pl, model, rng.New(2), policy.DefaultPlacement(), clouddir.DefaultConfig())
	if _, err := NewGenerator(env, dir, CloudA(), rng.New(3), 100); err == nil {
		t.Fatal("expected no-templates error")
	}
}

func TestCloudAGeneratesWork(t *testing.T) {
	r, gen := runProfile(t, CloudA(), 7, 4*3600)
	st := gen.Stats()
	if st.Arrivals < 50 {
		t.Fatalf("arrivals = %d, want >=50 over 4h at 40/h", st.Arrivals)
	}
	if r.pl.TasksCompleted() < int64(st.Arrivals) {
		t.Fatalf("tasks %d < arrivals %d", r.pl.TasksCompleted(), st.Arrivals)
	}
	kinds := r.tasksByKind()
	if kinds[ops.KindDeploy] == 0 || kinds[ops.KindPowerOn] == 0 {
		t.Fatalf("missing core kinds in %v", kinds)
	}
	if err := r.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCloudALifecycleDeletes(t *testing.T) {
	// With a short lifetime, vApps deployed early are deleted within the
	// run, so destroys appear.
	pr := CloudA()
	pr.LifetimeMeanS = 600
	pr.LifetimeCV = 0.2
	r, gen := runProfile(t, pr, 11, 3*3600)
	if gen.Stats().Deleted == 0 {
		t.Fatal("no vApps deleted")
	}
	if r.tasksByKind()[ops.KindDestroy] == 0 {
		t.Fatal("no destroy tasks recorded")
	}
}

// A vApp that outlives the run is held by its lifetime timer, and that
// timer must hold only the vApp: once the deploys have drained, every
// deploy task is garbage even though every vApp is still live.
func TestLiveVAppsDoNotPinTheirTasks(t *testing.T) {
	pr := CloudA()
	pr.LifetimeMeanS = 20 * Day
	pr.LifetimeCV = 0.3
	r := newRig(t, 3, clouddir.DefaultConfig())
	var deploys int64
	var freed atomic.Int64
	r.pl.AddTaskSink(func(task *mgmt.Task) {
		if task.Req.Kind == ops.KindDeploy {
			deploys++
			runtime.SetFinalizer(task, func(*mgmt.Task) { freed.Add(1) })
		}
	})
	gen, err := NewGenerator(r.env, r.dir, pr, rng.Derive(3, "wl:"+pr.Name), 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	r.env.Run(3 * 3600) // arrivals and activity stop at 2 h; the hour after drains them
	if gen.Stats().Deleted != 0 || len(r.inv.VApps()) == 0 || deploys == 0 {
		t.Fatalf("want only live vApps: deleted %d, live %d, deploys %d",
			gen.Stats().Deleted, len(r.inv.VApps()), deploys)
	}
	for i := 0; i < 100 && freed.Load() < deploys; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != deploys {
		t.Fatalf("%d of %d deploy tasks collected; live vApps keep the rest", got, deploys)
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(gen)
}

func TestCloudBSessionBatches(t *testing.T) {
	r, gen := runProfile(t, CloudB(), 13, 5*3600)
	st := gen.Stats()
	if st.Sessions != 2 { // sessions at t=2h and t=4h
		t.Fatalf("sessions = %d, want 2", st.Sessions)
	}
	if st.Arrivals < int64(st.Sessions)*30 {
		t.Fatalf("arrivals = %d, want >= %d", st.Arrivals, st.Sessions*30)
	}
	if err := r.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClassicDCIsQuiet(t *testing.T) {
	_, genA := runProfile(t, CloudA(), 17, 2*3600)
	_, genDC := runProfile(t, ClassicDC(), 17, 2*3600)
	if genDC.Stats().Arrivals*5 >= genA.Stats().Arrivals {
		t.Fatalf("classic DC arrivals %d not ≪ CloudA %d",
			genDC.Stats().Arrivals, genA.Stats().Arrivals)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		r, gen := runProfile(t, CloudA(), 23, 2*3600)
		return r.pl.TasksCompleted(), gen.Stats().Arrivals
	}
	t1, a1 := run()
	t2, a2 := run()
	if t1 != t2 || a1 != a2 {
		t.Fatalf("runs diverged: tasks %d/%d arrivals %d/%d", t1, t2, a1, a2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	ra, _ := runProfile(t, CloudA(), 31, 2*3600)
	rb, _ := runProfile(t, CloudA(), 32, 2*3600)
	if ra.pl.TasksCompleted() == rb.pl.TasksCompleted() {
		t.Log("task counts equal across seeds (possible but unlikely); checking latencies")
		if ra.latS == rb.latS {
			t.Fatal("different seeds produced identical results")
		}
	}
}

func TestActivityOpsOccur(t *testing.T) {
	pr := CloudA()
	pr.PowerCycleRate = 2.0 // crank activity so a short run sees it
	pr.SnapshotRate = 1.0
	pr.ReconfigRate = 1.0
	r, gen := runProfile(t, pr, 37, 2*3600)
	if gen.Stats().ActivityOps == 0 {
		t.Fatal("no background activity")
	}
	kinds := r.tasksByKind()
	if kinds[ops.KindSnapshotCreate] == 0 || kinds[ops.KindReconfigure] == 0 {
		t.Fatalf("missing activity kinds: %v", kinds)
	}
	if err := r.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsHoldUnderChurnWithDeletes(t *testing.T) {
	pr := CloudA()
	pr.LifetimeMeanS = 300
	pr.LifetimeCV = 1.0
	pr.PowerCycleRate = 1.0
	pr.SnapshotRate = 0.5
	r, _ := runProfile(t, pr, 41, 3*3600)
	if err := r.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.pl.TasksCompleted() == 0 {
		t.Fatal("nothing ran")
	}
}

func TestDiurnalRateShape(t *testing.T) {
	pr := CloudA()
	env := sim.NewEnv()
	_ = env
	g := &Generator{profile: pr}
	midnight := g.rateAt(0)
	noon := g.rateAt(Day / 2)
	if noon <= midnight {
		t.Fatalf("noon rate %v not above midnight %v", noon, midnight)
	}
	flat := &Generator{profile: ClassicDC()}
	flat.profile.DiurnalAmplitude = 0
	if flat.rateAt(0) != flat.rateAt(Day/2) {
		t.Fatal("flat profile not flat")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cloud-a", "cloud-b", "classic-dc"} {
		pr, err := ByName(name)
		if err != nil || pr.Name == "" {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSuspendActivityAppears(t *testing.T) {
	pr := CloudB()
	pr.SuspendRate = 3.0 // crank so a short run sees it
	r, _ := runProfile(t, pr, 43, 3*3600)
	kinds := r.tasksByKind()
	if kinds[ops.KindSuspend] == 0 {
		t.Fatalf("no suspends: %v", kinds)
	}
	if err := r.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
