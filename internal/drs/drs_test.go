package drs

import (
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
	bal   *Balancer
	hosts []*inventory.Host
	ds    *inventory.Datastore
	tpl   *inventory.Template
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	fx := testfix.New(testfix.Options{Hosts: 3, HostMemMB: 32768,
		Datastores: 1, DatastoreMBps: 300, TemplateGB: 16})
	pl, err := plane.New(fx.Env, fx.Inv, fx.Pool, fx.Model, 1, mgmt.DefaultConfig(), plane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bal, err := New(fx.Env, pl, policy.DefaultMove(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{env: fx.Env, inv: fx.Inv, pl: pl, bal: bal,
		hosts: fx.Hosts, ds: fx.DS[0], tpl: fx.Tpl}
}

// loadHost puts n powered-on 2 GB VMs on host.
func (f *fixture) loadHost(t *testing.T, host *inventory.Host, n int) {
	t.Helper()
	f.env.Go("prep", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			vm, task := f.pl.DeployVM(p, "vm", f.tpl, host, f.ds, ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
			if task.Err != nil {
				t.Errorf("deploy: %v", task.Err)
				return
			}
			f.pl.PowerOn(p, vm, mgmt.ReqCtx{Org: "o"})
		}
	})
	f.env.Run(sim.Forever)
}

func TestBalancePassReducesSpread(t *testing.T) {
	f := newFixture(t, Config{Threshold: 0.2, CheckS: 60, Batch: 8})
	f.loadHost(t, f.hosts[0], 10) // 20 GB of 32 GB → 62% vs 0%
	before := f.bal.Spread()
	if before < 0.5 {
		t.Fatalf("setup spread = %v", before)
	}
	f.env.Go("drs", func(p *sim.Proc) { f.bal.BalanceOnce(p) })
	f.env.Run(sim.Forever)
	st := f.bal.Stats()
	if st.Passes != 1 || st.Moves == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if after := f.bal.Spread(); after >= before {
		t.Fatalf("spread did not shrink: %v -> %v", before, after)
	}
	if len(st.Completed) != 1 || st.Completed[0].Moved == 0 {
		t.Fatalf("pass records = %+v", st.Completed)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancerIdleWhenBalanced(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// Spread load evenly.
	for _, h := range f.hosts {
		f.loadHost(t, h, 3)
	}
	f.env.Go("drs", func(p *sim.Proc) { f.bal.BalanceOnce(p) })
	f.env.Run(sim.Forever)
	if st := f.bal.Stats(); st.Passes != 0 {
		t.Fatalf("acted on a balanced cluster: %+v", st)
	}
}

func TestBackgroundBalancerRuns(t *testing.T) {
	f := newFixture(t, Config{Threshold: 0.2, CheckS: 120, Batch: 4})
	f.loadHost(t, f.hosts[0], 10)
	f.bal.Start()
	f.env.Run(600)
	if st := f.bal.Stats(); st.Moves == 0 {
		t.Fatalf("background balancer never moved: %+v", st)
	}
}

func TestDisabledBalancer(t *testing.T) {
	f := newFixture(t, Config{})
	f.loadHost(t, f.hosts[0], 10)
	f.bal.Start() // no-op
	f.env.Run(600)
	if st := f.bal.Stats(); st.Passes != 0 {
		t.Fatal("disabled balancer acted")
	}
}

func TestSkipsMaintenanceHosts(t *testing.T) {
	f := newFixture(t, Config{Threshold: 0.2, CheckS: 60, Batch: 8})
	f.loadHost(t, f.hosts[0], 10)
	f.inv.SetHostMaintenance(f.hosts[1], true)
	f.env.Go("drs", func(p *sim.Proc) { f.bal.BalanceOnce(p) })
	f.env.Run(sim.Forever)
	if len(f.hosts[1].VMs) != 0 {
		t.Fatal("migrated onto a maintenance host")
	}
	if len(f.hosts[2].VMs) == 0 {
		t.Fatal("no migrations to the in-service host")
	}
}

func TestBadConfigRejected(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := New(f.env, f.pl, policy.DefaultMove(), Config{Threshold: 0.2}); err == nil {
		t.Fatal("expected error")
	}
}

// Start now runs on reconcile.StartLoop; pin it against the hand-rolled
// sleep-then-balance loop it replaced — identical pass records, moves,
// and timings.
func TestStartMatchesHandRolledLoop(t *testing.T) {
	run := func(hand bool) Stats {
		f := newFixture(t, Config{Threshold: 0.2, CheckS: 120, Batch: 4})
		f.loadHost(t, f.hosts[0], 10)
		if hand {
			f.env.Go("drs", func(p *sim.Proc) {
				for {
					p.Sleep(f.bal.cfg.CheckS)
					f.bal.BalanceOnce(p)
				}
			})
		} else {
			f.bal.Start()
		}
		f.env.Run(900)
		return f.bal.Stats()
	}
	handRolled, generalized := run(true), run(false)
	if !reflect.DeepEqual(handRolled, generalized) {
		t.Fatalf("loop diverged:\nhand-rolled: %+v\nStartLoop:   %+v", handRolled, generalized)
	}
	if generalized.Moves == 0 {
		t.Fatal("balancer never moved")
	}
}
