package ha

import (
	"fmt"
	"reflect"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/testfix"
)

type fixture struct {
	env   *sim.Env
	inv   *inventory.Inventory
	pl    *plane.Plane
	mgr   *mgmt.Manager
	eng   *Engine
	hosts []*inventory.Host
	ds    *inventory.Datastore
	tpl   *inventory.Template
}

func newFixture(t *testing.T, cfg Config) *fixture {
	return newShardedFixture(t, cfg, 1)
}

// newShardedFixture builds the fixture on a plane of the given shard
// count; its four hosts split into contiguous blocks across the shards.
func newShardedFixture(t *testing.T, cfg Config, shards int) *fixture {
	t.Helper()
	fx := testfix.New(testfix.Options{Hosts: 4, Datastores: 1,
		DatastoreGB: 8000, DatastoreMBps: 300, TemplateGB: 16})
	pcfg := plane.DefaultConfig()
	pcfg.Shards = shards
	pl, err := plane.New(fx.Env, fx.Inv, fx.Pool, fx.Model, 1, mgmt.DefaultConfig(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(fx.Env, pl, policy.DefaultFailover(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{env: fx.Env, inv: fx.Inv, pl: pl, mgr: pl.Home(), eng: eng,
		hosts: fx.Hosts, ds: fx.DS[0], tpl: fx.Tpl}
}

// populate puts n powered-on VMs and m powered-off VMs on host.
func (f *fixture) populate(t *testing.T, host *inventory.Host, on, off int) []*inventory.VM {
	t.Helper()
	var vms []*inventory.VM
	f.env.Go("prep", func(p *sim.Proc) {
		for i := 0; i < on+off; i++ {
			vm, task := f.mgr.DeployVM(p, "vm", f.tpl, host, f.ds, ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
				return
			}
			if i < on {
				f.mgr.PowerOn(p, vm, mgmt.ReqCtx{Org: "o"})
			}
			vms = append(vms, vm)
		}
	})
	f.env.Run(sim.Forever)
	return vms
}

func TestFailoverRestartsPoweredOnVMs(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	vms := f.populate(t, f.hosts[0], 3, 2)
	var fo *Failover
	f.env.Go("fail", func(p *sim.Proc) {
		fo = f.eng.FailHost(p, f.hosts[0])
	})
	f.env.Run(sim.Forever)
	if fo.Affected != 5 || fo.Restarted != 3 || fo.Unplaced != 0 || fo.Errors != 0 {
		t.Fatalf("failover = %+v", fo)
	}
	if fo.Duration() <= 0 {
		t.Fatal("instantaneous failover")
	}
	for i, vm := range vms {
		if i < 3 {
			if vm.State != inventory.VMPoweredOn {
				t.Fatalf("vm %d state %v", i, vm.State)
			}
			if vm.HostID == f.hosts[0].ID {
				t.Fatalf("vm %d still on failed host", i)
			}
		} else {
			// Powered-off VMs stay registered to the failed host.
			if vm.HostID != f.hosts[0].ID || vm.State != inventory.VMPoweredOff {
				t.Fatalf("off vm %d moved unexpectedly", i)
			}
		}
	}
	if !f.hosts[0].Failed || f.hosts[0].InService() {
		t.Fatal("host not fenced")
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartThrottle(t *testing.T) {
	cfg := Config{MaxConcurrentRestarts: 1}
	f := newFixture(t, cfg)
	f.populate(t, f.hosts[0], 4, 0)
	var serial *Failover
	f.env.Go("fail", func(p *sim.Proc) { serial = f.eng.FailHost(p, f.hosts[0]) })
	f.env.Run(sim.Forever)

	f2 := newFixture(t, Config{MaxConcurrentRestarts: 8})
	f2.populate(t, f2.hosts[0], 4, 0)
	var parallel *Failover
	f2.env.Go("fail", func(p *sim.Proc) { parallel = f2.eng.FailHost(p, f2.hosts[0]) })
	f2.env.Run(sim.Forever)

	if serial.Duration() < 2*parallel.Duration() {
		t.Fatalf("throttled failover %v not ≫ parallel %v", serial.Duration(), parallel.Duration())
	}
}

func TestUnplacedWhenNoCapacity(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// Fill every other host's memory.
	for _, h := range f.hosts[1:] {
		for h.FreeMemMB() >= f.tpl.MemMB {
			if _, err := f.inv.AddVM("filler", h, f.ds, 1, f.tpl.MemMB, 0.1); err != nil {
				break
			}
		}
	}
	f.populate(t, f.hosts[0], 2, 0)
	var fo *Failover
	f.env.Go("fail", func(p *sim.Proc) { fo = f.eng.FailHost(p, f.hosts[0]) })
	f.env.Run(sim.Forever)
	if fo.Unplaced != 2 || fo.Restarted != 0 {
		t.Fatalf("failover = %+v", fo)
	}
}

func TestFailoversRecorded(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.populate(t, f.hosts[0], 1, 0)
	f.populate(t, f.hosts[1], 1, 0)
	f.env.Go("fail", func(p *sim.Proc) {
		f.eng.FailHost(p, f.hosts[0])
		f.eng.FailHost(p, f.hosts[1])
	})
	f.env.Run(sim.Forever)
	if got := len(f.eng.failovers); got != 2 {
		t.Fatalf("failovers = %d", got)
	}
}

// TestRestartsRouteToOwningShard pins the plane's routing for HA: on a
// two-shard plane, each restart's power-on is a task of the shard that
// owns the VM's new host, not of the home shard.
func TestRestartsRouteToOwningShard(t *testing.T) {
	f := newShardedFixture(t, DefaultConfig(), 2)
	f.populate(t, f.hosts[0], 6, 0)
	perShard := make([]int, f.pl.ShardCount())
	for i, mgr := range f.pl.Shards() {
		mgr.AddTaskSink(func(task *mgmt.Task) {
			if task.Req.Org != "ha" {
				return
			}
			perShard[i]++
			if owner := f.pl.ShardOf(task.HostID); owner != i {
				t.Errorf("restart on host %d ran on shard %d, owner is shard %d", task.HostID, i, owner)
			}
		})
	}
	var fo *Failover
	f.env.Go("fail", func(p *sim.Proc) { fo = f.eng.FailHost(p, f.hosts[0]) })
	f.env.Run(sim.Forever)
	if fo.Restarted != 6 || perShard[0]+perShard[1] != 6 {
		t.Fatalf("failover = %+v, restarts per shard = %v", fo, perShard)
	}
	if perShard[1] == 0 {
		t.Fatalf("no restart landed on shard 1 (per shard %v); the test does not exercise routing", perShard)
	}
}

func TestBadConfig(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := New(f.env, f.pl, policy.DefaultFailover(), Config{}); err == nil {
		t.Fatal("expected error")
	}
}

// failHostHandRolled is the restart storm exactly as FailHost spelled it
// out before the fan-out was generalized onto reconcile.FanOut — kept
// here verbatim so the refactor is pinned event-for-event.
func failHostHandRolled(e *Engine, p *sim.Proc, host *inventory.Host) *Failover {
	inv := e.pl.Inventory()
	fo := Failover{Host: host.ID, Start: p.Now()}
	inv.SetHostFailed(host, true)

	var toRestart []*inventory.VM
	ids := make([]inventory.ID, len(host.VMs))
	copy(ids, host.VMs)
	for _, id := range ids {
		vm := inv.VM(id)
		if vm == nil {
			continue
		}
		fo.Affected++
		if vm.State == inventory.VMPoweredOn {
			inv.PowerOff(vm)
			toRestart = append(toRestart, vm)
		}
	}

	remaining := len(toRestart)
	done := sim.NewSignal(e.env)
	for _, vm := range toRestart {
		vm := vm
		e.env.Go("ha-restart:"+vm.Name, func(rp *sim.Proc) {
			defer func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			}()
			e.slots.Acquire(rp, 1)
			defer e.slots.Release(1)
			if inv.VM(vm.ID) == nil || vm.State == inventory.VMDeleted {
				return
			}
			target := e.pickTarget(vm)
			if target == nil {
				fo.Unplaced++
				return
			}
			if err := inv.MoveVM(vm, target, nil); err != nil {
				fo.Unplaced++
				return
			}
			task := e.pl.PowerOn(rp, vm, mgmt.ReqCtx{Org: "ha"})
			if task.Err != nil {
				fo.Errors++
				return
			}
			fo.Restarted++
		})
	}
	if remaining > 0 {
		done.Wait(p)
	}
	fo.End = p.Now()
	e.failovers = append(e.failovers, fo)
	out := fo
	return &out
}

// placement snapshots which VMs sit on which hosts, and their states.
func placement(f *fixture) map[string][]string {
	out := make(map[string][]string)
	for _, h := range f.hosts {
		for _, id := range h.VMs {
			vm := f.inv.VM(id)
			out[h.Name] = append(out[h.Name], fmt.Sprintf("%d:%v", id, vm.State))
		}
	}
	return out
}

// FailHost now fans out on reconcile.FanOut; pin it against the
// hand-rolled storm it replaced — identical failover record, identical
// finish time, identical resulting placement.
func TestFailHostMatchesHandRolledStorm(t *testing.T) {
	type outcome struct {
		fo    Failover
		endAt sim.Time
		place map[string][]string
	}
	run := func(hand bool) outcome {
		f := newFixture(t, Config{MaxConcurrentRestarts: 2})
		f.populate(t, f.hosts[0], 5, 1)
		var fo *Failover
		f.env.Go("fail", func(p *sim.Proc) {
			if hand {
				fo = failHostHandRolled(f.eng, p, f.hosts[0])
			} else {
				fo = f.eng.FailHost(p, f.hosts[0])
			}
		})
		end := f.env.Run(sim.Forever)
		return outcome{fo: *fo, endAt: end, place: placement(f)}
	}
	handRolled, generalized := run(true), run(false)
	if !reflect.DeepEqual(handRolled, generalized) {
		t.Fatalf("storm diverged:\nhand-rolled: %+v\nFanOut:      %+v", handRolled, generalized)
	}
	if generalized.fo.Restarted != 5 {
		t.Fatalf("restarted %d of 5", generalized.fo.Restarted)
	}
}
