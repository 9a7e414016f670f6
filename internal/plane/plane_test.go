package plane

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cloudmcp/internal/hostsim"
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
	mcfg := mgmt.DefaultConfig()
	db, err := mgmt.NewDB(rawFx.Env, "", mcfg)
	if err != nil {
		t.Fatal(err)
	}
	agents := hostsim.NewRegistry(rawFx.Env, rawFx.Inv, mcfg.HostSlots)
	raw, err := mgmt.New(rawFx.Env, rawFx.Inv, rawFx.Pool, agents, db, rawFx.Model, rng.Derive(1, "mgmt"), "", mcfg)
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
	coordWrite := DefaultConfig().CoordWriteS
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
	_, pl := newPlane(t, 4, 2, DBPerShard)
	for i, m := range pl.Shards() {
		label := fmt.Sprintf("shard%d.", i)
		if got := m.Resources().Threads.Name; got != label+"mgmt.threads" {
			t.Fatalf("shard %d threads named %q, want prefix %q", i, got, label)
		}
		if got := m.DB().Name(); got != label+"mgmt.db" {
			t.Fatalf("shard %d database named %q, want prefix %q", i, got, label)
		}
	}
	_, single := newPlane(t, 2, 1, DBPerShard)
	if got := single.Home().Resources().Threads.Name; got != "mgmt.threads" {
		t.Fatalf("single-shard threads named %q", got)
	}
}

// DBs lists each distinct database once, in shard order — the shared
// instance alone, or every shard's own — and every shard writes through
// one of them.
func TestDBsDistinctInShardOrder(t *testing.T) {
	for _, tc := range []struct {
		shards int
		mode   DBMode
		want   []string
	}{
		{1, DBShared, []string{"mgmt.db"}},
		{1, DBPerShard, []string{"mgmt.db"}},
		{3, DBShared, []string{"mgmt.db"}},
		{3, DBPerShard, []string{"shard0.mgmt.db", "shard1.mgmt.db", "shard2.mgmt.db"}},
	} {
		_, pl := newPlane(t, 4, tc.shards, tc.mode)
		var got []string
		for _, db := range pl.DBs() {
			got = append(got, db.Name())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%d shards %s: databases %q, want %q", tc.shards, tc.mode, got, tc.want)
		}
		for i, m := range pl.Shards() {
			if want := pl.DBs()[min(i, len(pl.DBs())-1)]; m.DB() != want {
				t.Fatalf("%d shards %s: shard %d writes through %s, want %s", tc.shards, tc.mode, i, m.DB().Name(), want.Name())
			}
		}
	}
}
