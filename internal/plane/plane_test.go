package plane

import (
	"math"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/testfix"
)

// newPlane builds a plane with the given shard count over a fresh
// installation of n hosts.
func newPlane(t *testing.T, hosts, shards int, db DBMode) (*testfix.Fix, *Plane) {
	t.Helper()
	fx := testfix.New(testfix.Options{Hosts: hosts})
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.DB = db
	pl, err := New(fx.Env, fx.Inv, fx.Pool, fx.Model, 1, mgmt.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fx, pl
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, bad := range []Config{
		{Shards: 0, DB: DBShared},
		{Shards: -1, DB: DBShared},
		{Shards: 2, DB: "sharded"},
		{Shards: 2, DB: DBShared, CoordWriteS: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v validated", bad)
		}
	}
}

func TestNewRejectsPlaneOwnedManagerFields(t *testing.T) {
	fx := testfix.New(testfix.Options{})
	mcfg := mgmt.DefaultConfig()
	mcfg.Label = "rogue."
	if _, err := New(fx.Env, fx.Inv, fx.Pool, fx.Model, 1, mcfg, DefaultConfig()); err == nil {
		t.Fatal("plane accepted a pre-labelled manager config")
	}
}

// A single-shard plane must be the identity refactor: the same deploy
// against a raw manager built the way core.New historically built it
// (stream "mgmt", unprefixed resources) yields bit-identical task
// timings.
func TestSingleShardIsIdentity(t *testing.T) {
	deploy := func(mgr *mgmt.Manager, fx *testfix.Fix) *mgmt.Task {
		var task *mgmt.Task
		fx.Env.Go("u", func(p *sim.Proc) {
			_, task = mgr.DeployVM(p, "vm0", fx.Tpl, fx.Hosts[0], fx.DS[0], ops.LinkedClone, mgmt.ReqCtx{Org: "org"})
		})
		fx.Env.Run(sim.Forever)
		return task
	}
	rawFx := testfix.New(testfix.Options{})
	raw, err := mgmt.New(rawFx.Env, rawFx.Inv, rawFx.Pool, rawFx.Model, rng.Derive(1, "mgmt"), mgmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plFx, pl := newPlane(t, 2, 1, DBShared)
	a, b := deploy(raw, rawFx), deploy(pl.Home(), plFx)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v %v", a.Err, b.Err)
	}
	if a.Breakdown != b.Breakdown || a.Latency() != b.Latency() {
		t.Fatalf("single-shard plane diverged from raw manager:\nraw   %+v (%.6f s)\nplane %+v (%.6f s)",
			a.Breakdown, a.Latency(), b.Breakdown, b.Latency())
	}
	if pl.ShardCount() != 1 || pl.Home() != pl.Shards()[0] {
		t.Fatal("single-shard topology malformed")
	}
}

// The partitioner must cover every host with contiguous, balanced
// blocks so cell-affine placement stays shard-local.
func TestPartitionerContiguousAndBalanced(t *testing.T) {
	fx, pl := newPlane(t, 10, 4, DBShared)
	counts := make([]int, 4)
	prev := 0
	for _, id := range fx.Inv.Hosts() {
		s := pl.ShardOf(id)
		if s < 0 || s >= 4 {
			t.Fatalf("host %v on shard %d", id, s)
		}
		if s < prev {
			t.Fatalf("partition not contiguous: shard %d after %d", s, prev)
		}
		prev = s
		counts[s]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || max-min > 1 {
		t.Fatalf("unbalanced partition: %v", counts)
	}
	if pl.ShardOf(inventory.None) != 0 {
		t.Fatal("unowned targets must fall to the home shard")
	}
}

// Ops must execute on the shard owning their target host.
func TestRoutingByHostOwner(t *testing.T) {
	fx, pl := newPlane(t, 4, 2, DBShared)
	if s0, s1 := pl.ShardOf(fx.Hosts[0].ID), pl.ShardOf(fx.Hosts[3].ID); s0 != 0 || s1 != 1 {
		t.Fatalf("partition: host0 on %d, host3 on %d", s0, s1)
	}
	fx.Env.Go("u", func(p *sim.Proc) {
		pl.DeployVM(p, "a", fx.Tpl, fx.Hosts[0], fx.DS[0], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
		pl.DeployVM(p, "b", fx.Tpl, fx.Hosts[3], fx.DS[1], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
		pl.DeployVM(p, "c", fx.Tpl, fx.Hosts[3], fx.DS[1], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
	})
	fx.Env.Run(sim.Forever)
	if n0, n1 := pl.Shards()[0].TasksCompleted(), pl.Shards()[1].TasksCompleted(); n0 != 1 || n1 != 2 {
		t.Fatalf("task routing: shard0=%d shard1=%d, want 1/2", n0, n1)
	}
	if got := pl.TasksCompleted(); got != 3 {
		t.Fatalf("aggregate tasks = %d, want 3", got)
	}
}

// A migration between shards pays the two-phase coordinator: a prepare
// round-trip folded into the task's breakdown and a commit round-trip
// after it, both counted in Stats. Same-shard migrations pay nothing.
func TestCrossShardMigrateCoordination(t *testing.T) {
	fx, pl := newPlane(t, 4, 2, DBShared)
	coordWrite := pl.Config().CoordWriteS
	var vmA, vmB *inventory.VM
	var same, cross *mgmt.Task
	fx.Env.Go("u", func(p *sim.Proc) {
		vmA, _ = pl.DeployVM(p, "a", fx.Tpl, fx.Hosts[0], fx.DS[0], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
		vmB, _ = pl.DeployVM(p, "b", fx.Tpl, fx.Hosts[0], fx.DS[0], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
		same = pl.Migrate(p, vmA, fx.Hosts[1], mgmt.ReqCtx{Org: "o"})  // shard 0 → 0
		cross = pl.Migrate(p, vmB, fx.Hosts[3], mgmt.ReqCtx{Org: "o"}) // shard 0 → 1
	})
	fx.Env.Run(sim.Forever)
	if same.Err != nil || cross.Err != nil {
		t.Fatalf("errs: %v %v", same.Err, cross.Err)
	}
	st := pl.Stats()
	if st.CrossOps != 1 {
		t.Fatalf("cross ops = %d, want 1", st.CrossOps)
	}
	// Prepare + commit, two participants each, no contention: 4 DB
	// round-trips of CoordWriteS.
	if want := 4 * coordWrite; math.Abs(st.CoordS-want) > 1e-9 {
		t.Fatalf("coordinator charged %.4f s, want %.4f", st.CoordS, want)
	}
	// The prepare round-trips (2 of 4) land in the task's own breakdown.
	if want := same.Breakdown.DB + 2*coordWrite; math.Abs(cross.Breakdown.DB-want) > 1e-9 {
		t.Fatalf("cross-shard DB time %.4f, want %.4f", cross.Breakdown.DB, want)
	}
	if cross.Latency() <= same.Latency() {
		t.Fatalf("cross-shard migrate (%.4f s) not slower than same-shard (%.4f s)",
			cross.Latency(), same.Latency())
	}
	if vmB.HostID != fx.Hosts[3].ID {
		t.Fatal("cross-shard migrate did not move the VM")
	}
}

// The task sink must see every task no matter which shard ran it.
func TestTaskSinkFansOutAcrossShards(t *testing.T) {
	fx, pl := newPlane(t, 4, 2, DBShared)
	var seen int
	pl.AddTaskSink(func(*mgmt.Task) { seen++ })
	fx.Env.Go("u", func(p *sim.Proc) {
		for i, h := range fx.Hosts {
			pl.DeployVM(p, "vm", fx.Tpl, h, fx.DS[i%2], ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
		}
	})
	fx.Env.Run(sim.Forever)
	if int64(seen) != pl.TasksCompleted() || seen != 4 {
		t.Fatalf("sink saw %d tasks, plane completed %d, want 4", seen, pl.TasksCompleted())
	}
}

// Per-shard resources must carry the shard label so metric keys cannot
// collide, while the single-shard plane keeps the historical unprefixed
// names.
func TestShardResourceLabels(t *testing.T) {
	_, pl := newPlane(t, 4, 2, DBShared)
	for i, m := range pl.Shards() {
		if got, want := m.Config().Label, map[int]string{0: "shard0.", 1: "shard1."}[i]; got != want {
			t.Fatalf("shard %d label %q, want %q", i, got, want)
		}
	}
	_, single := newPlane(t, 2, 1, DBShared)
	if got := single.Home().Config().Label; got != "" {
		t.Fatalf("single-shard label %q, want empty", got)
	}
}
