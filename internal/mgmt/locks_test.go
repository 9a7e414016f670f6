package mgmt

import (
	"fmt"
	"testing"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
)

// The lock table holds only locks in flight. A drained mixed workload
// (deploys, power, snapshots, migrations and destroys, with injected
// faults and retries, and every worker contending on one shared VM)
// ends with no lock in the table, even though some of its VMs outlive
// it. Every lock the table holds mid-run is held, and the pool of idle
// locks never outgrows what the workload can hold at once: one VM lock
// per worker under entity locking, the two hosts and two datastores
// under host locking. The workload creates many more VMs than that.
func TestLocksLiveOnlyWhileHeld(t *testing.T) {
	const workers, rounds = 4, 6
	for _, tc := range []struct {
		g       LockGranularity
		maxHeld int
	}{{GranularityEntity, workers}, {GranularityHost, 4}} {
		t.Run(tc.g.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Granularity = tc.g
			cfg.Faults = injector(t, faults.Config{Host: faults.Layer{FailProb: 0.15}, DB: faults.Layer{FailProb: 0.15}})
			cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 1, Multiplier: 2}
			f := newFixture(t, cfg)
			m := f.mgr
			ctx := ReqCtx{Org: "org"}
			ids := []inventory.ID{f.hosts[0].ID, f.hosts[1].ID, f.ds[0].ID, f.ds[1].ID}
			peak, deployed, running := 0, 0, 0
			f.env.Go("workload", func(p *sim.Proc) {
				shared, task := m.DeployVM(p, "shared", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ctx)
				if task.Err != nil {
					t.Errorf("deploy shared: %v", task.Err)
					return
				}
				ids = append(ids, shared.ID)
				for w := 0; w < workers; w++ {
					running++
					f.env.Go("worker", func(p *sim.Proc) {
						defer func() { running-- }()
						for r := 0; r < rounds; r++ {
							host := f.hosts[(w+r)%2]
							vm, task := m.DeployVM(p, fmt.Sprintf("vm%d.%d", w, r), f.tpl, host, f.ds[w%2], ops.LinkedClone, ctx)
							if task.Err != nil {
								continue
							}
							deployed++
							ids = append(ids, vm.ID)
							m.PowerOn(p, vm, ctx)
							m.SnapshotCreate(p, vm, ctx)
							m.Reconfigure(p, shared, ctx)
							m.Migrate(p, vm, f.hosts[(w+r+1)%2], ctx)
							m.PowerOff(p, vm, ctx)
							if r%3 != 2 {
								m.Destroy(p, vm, ctx)
							}
						}
					})
				}
				// Sample the table while the workers run: every lock in
				// it is held. The time bound keeps a stuck worker from
				// running the simulation forever.
				for running > 0 && p.Now() < 1e5 {
					held := 0
					for _, id := range ids {
						if l, ok := m.locks[id]; ok && l.InUse() == 1 {
							held++
						}
					}
					if held != len(m.locks) {
						t.Errorf("t=%v: %d locks in the table, %d of them held", p.Now(), len(m.locks), held)
						return
					}
					peak = max(peak, held)
					p.Sleep(0.25)
				}
			})
			f.env.Run(sim.Forever)
			if running != 0 {
				t.Fatalf("%d workers never finished", running)
			}
			if rs := m.RetryStats(); rs.Retries == 0 {
				t.Fatalf("no retries: %+v", rs)
			}
			if left := len(f.inv.VMs()); left == 0 || deployed <= tc.maxHeld {
				t.Fatalf("%d VMs deployed, %d left: the workload must outgrow %d locks and leave VMs alive", deployed, left, tc.maxHeld)
			}
			if n := len(m.locks); n != 0 {
				t.Fatalf("%d locks live after the drained workload, want 0", n)
			}
			if n := len(m.lockPool); peak == 0 || n < peak || n > tc.maxHeld {
				t.Fatalf("%d pooled locks, want between the %d seen in flight at once and the %d the workload can hold", n, peak, tc.maxHeld)
			}
		})
	}
}

// An operation queued on a held lock is granted the same lock record
// when the holder lets go, and queued operations get it in arrival
// order; the lock returns to the pool only after the last of them.
func TestQueuedOpsInheritTheHeldLockInOrder(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	m := f.mgr
	var order []string
	var first *sim.Resource
	f.env.Go("ops", func(p *sim.Proc) {
		vm, task := m.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
		if task.Err != nil {
			t.Errorf("deploy: %v", task.Err)
			return
		}
		op := func(name string, body func(p *sim.Proc)) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				m.Execute(p, ExecSpec{
					Req:         ops.Request{Kind: ops.KindReconfigure, VMID: vm.ID, Org: "org"},
					LockTargets: []inventory.ID{vm.ID},
					Body: func(p *sim.Proc) error {
						l := m.locks[vm.ID]
						if first == nil {
							first = l
						} else if l != first {
							t.Errorf("%s holds lock record %p, want the first holder's %p", name, l, first)
						}
						order = append(order, name)
						body(p)
						return nil
					},
				})
			}
		}
		f.env.Go("holder", op("holder", func(p *sim.Proc) {
			// Both queue on the held lock while the holder sleeps.
			f.env.Go("second", op("second", func(*sim.Proc) {}))
			f.env.Go("third", op("third", func(*sim.Proc) {}))
			p.Sleep(30)
			if l := m.locks[vm.ID]; l.QueueLen() != 2 {
				t.Errorf("%d operations queued on the held lock, want 2", l.QueueLen())
			}
		}))
	})
	f.env.Run(sim.Forever)
	if fmt.Sprint(order) != "[holder second third]" {
		t.Fatalf("lock granted in order %v, want [holder second third]", order)
	}
	if len(m.locks) != 0 || len(m.lockPool) != 1 || m.lockPool[0] != first {
		t.Fatalf("after the last holder: %d locks live, pool %v, want none live and the one record pooled", len(m.locks), m.lockPool)
	}
}
