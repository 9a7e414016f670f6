package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/api"
	"cloudmcp/internal/bw"
	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// Seam timings: each loop calls one layer's public functions with the
// layer isolated from the rest of the stack (or with the stack idle
// around it), so a change to that layer shows as a change in its own
// ns/op before it shows end to end.

// seamTarget is how long each seam loop runs once calibrated.
func seamTarget(quick bool) time.Duration {
	if quick {
		return 2 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// timeOps grows n until fn(n) runs for at least target and returns the
// last run's ns and heap allocations per operation.
func timeOps(target time.Duration, fn func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	for n := 1; ; {
		a0 := heapAllocs()
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		if d >= target || n >= 1<<28 {
			return float64(d) / float64(n), float64(heapAllocs()-a0) / float64(n), nil
		}
		grow := 100
		if d > 0 {
			grow = min(grow, int(float64(target)/float64(d)*1.2)+1)
		}
		n *= max(grow, 2)
	}
}

// runSeams runs every seam loop and returns the per-layer seam metrics.
func runSeams(seed int64, quick bool) (map[string]float64, error) {
	target := seamTarget(quick)
	out := map[string]float64{}
	measure := func(name, allocsName string, scale float64, fn func(n int) error) error {
		ns, allocs, err := timeOps(target, fn)
		if err != nil {
			return fmt.Errorf("seam %s: %w", name, err)
		}
		out[name] = ns / scale
		if allocsName != "" {
			out[allocsName] = allocs
		}
		return nil
	}
	var sink float64

	// sim: one scheduled event through the heap, and a Resource handoff
	// between two processes (acquire, sleep, release, wake the waiter).
	env := sim.NewEnv()
	noop := func() {}
	if err := measure("sim.event_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			env.Schedule(0, noop)
			env.Run(sim.Forever)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("sim.handoff_ns", "", 1, func(n int) error {
		env := sim.NewEnv()
		res := sim.NewResource(env, "seam", 1)
		for w := 0; w < 2; w++ {
			env.Go("seam", func(p *sim.Proc) {
				for i := 0; i < (n+1)/2; i++ {
					res.Acquire(p, 1)
					p.Sleep(1)
					res.Release(1)
				}
			})
		}
		env.Run(sim.Forever)
		return nil
	}); err != nil {
		return nil, err
	}

	// rng and faults: the per-decision reseed and the injector decision.
	rs := rng.NewReseeder()
	if err := measure("rng.reseed_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			sink += rs.Reseed(int64(i)).Float64()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	inj, err := faults.New(seed, faults.Preset(0.1))
	if err != nil {
		return nil, err
	}
	if err := measure("faults.decide_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			sink += inj.Decide(faults.LayerHost, "deploy", int64(i), 1).StallS
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// mgmtdb: commits from four concurrent writers (so group commit
	// engages); bw: eight concurrent copies sharing one engine.
	if err := measure("mgmtdb.commit_ns", "", 1, func(n int) error {
		env := sim.NewEnv()
		db, err := mgmtdb.New(env, mgmtdb.DefaultConfig())
		if err != nil {
			return err
		}
		concurrently(env, 4, n, func(p *sim.Proc) { db.Commit(p, 4) })
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("bw.copy_ns", "", 1, func(n int) error {
		env := sim.NewEnv()
		e := bw.NewEngine(env, "seam", 300)
		concurrently(env, 8, n, func(p *sim.Proc) { e.Copy(p, 100) })
		return nil
	}); err != nil {
		return nil, err
	}

	// mgmt: Plane.Execute of a reconfigure-shaped task (admission, locks,
	// threads, DB, host agent) on an otherwise idle single-shard cloud.
	cfg := core.DefaultConfig(seed)
	cfg.Record = false
	cfg.Director.RebalanceThreshold = 0
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.PrepopulateVMs(64); err != nil {
		return nil, err
	}
	inv := c.Inventory()
	vms := inv.VMs()
	if err := measure("mgmt.execute_ns", "mgmt.execute_allocs", 1, func(n int) error {
		return inSim(c, func(p *sim.Proc) error {
			for i := 0; i < n; i++ {
				vm := inv.VM(vms[i%len(vms)])
				t := c.Plane().Execute(p, mgmt.ExecSpec{
					Req:         ops.Request{Kind: ops.KindReconfigure, VMID: vm.ID, Submit: float64(p.Now())},
					LockTargets: []inventory.ID{vm.ID},
					HostID:      vm.HostID,
				})
				if t.Err != nil {
					return t.Err
				}
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// clouddir: one deploy→delete cycle of a linked-clone vApp.
	cfg = core.DefaultConfig(seed)
	cfg.Record = false
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0
	if c, err = core.New(cfg); err != nil {
		return nil, err
	}
	dir := c.Director()
	tpl := c.Inventory().Template(c.Inventory().Templates()[0])
	if err := measure("clouddir.deploy_cycle_ns", "clouddir.deploy_cycle_allocs", 1, func(n int) error {
		return inSim(c, func(p *sim.Proc) error {
			for i := 0; i < n; i++ {
				res := dir.DeployVApp(p, "org0", tpl, 1, false)
				if res.Err != nil {
					return res.Err
				}
				dir.DeleteVApp(p, res.VApp, "org0")
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// inventory: registering the 10^5 VMs of inventory-1e5, then the
	// indexed placement queries against that inventory.
	nVMs := inventoryVMs(quick)
	if c, err = core.New(inventoryConfig(seed, nVMs)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := c.PrepopulateVMs(nVMs); err != nil {
		return nil, err
	}
	out["inventory.add_vm_ns"] = float64(time.Since(t0)) / float64(nVMs)
	big := c.Inventory()
	if err := measure("inventory.place_ns_1e5", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			if big.BestHost(2048) == nil || big.BestDatastore(1) == nil {
				return errors.New("no placement")
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// plane: a live migration between hosts on different shards (the
	// two-phase coordinator path).
	cfg = core.DefaultConfig(seed)
	cfg.Record = false
	cfg.Director.RebalanceThreshold = 0
	cfg.Plane.Shards = 4
	if c, err = core.New(cfg); err != nil {
		return nil, err
	}
	if err := c.PrepopulateVMs(1); err != nil {
		return nil, err
	}
	inv = c.Inventory()
	vm := inv.VM(inv.VMs()[0])
	src := inv.Host(vm.HostID)
	var dst *inventory.Host
	for _, id := range inv.Hosts() {
		if c.Plane().ShardOf(id) != c.Plane().ShardOf(src.ID) {
			dst = inv.Host(id)
			break
		}
	}
	if err := measure("plane.xshard_migrate_ns", "", 1, func(n int) error {
		return inSim(c, func(p *sim.Proc) error {
			for i := 0; i < n; i++ {
				to := dst
				if vm.HostID == dst.ID {
					to = src
				}
				if t := c.Plane().Migrate(p, vm, to, mgmt.ReqCtx{}); t.Err != nil {
					return t.Err
				}
			}
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// analysis: the per-kind latency summary over a closed-loop trace.
	loop := batches[wDeployLoop]
	if c, err = loop.build(seed, loop.quickS, true, false); err != nil {
		return nil, err
	}
	c.Run(loop.quickS)
	recs := c.Records()
	if err := measure("analysis.latency_by_kind_ns_per_record", "", float64(len(recs)), func(n int) error {
		for i := 0; i < n; i++ {
			if len(analysis.LatencyByKind(recs)) == 0 {
				return errors.New("empty summary")
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// core: building the default cloud.
	if err := measure("core.new_ms", "", 1e6, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := core.New(core.DefaultConfig(seed)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The serving path on the serve-paced stack with a free-running
	// driver: a bare quantum, Frontend.SubmitOp to a terminal task, and
	// the REST handlers through an httptest recorder.
	if err := servingSeams(seed, measure); err != nil {
		return nil, err
	}
	runtime.KeepAlive(sink)
	return out, nil
}

// concurrently runs n calls of op spread over procs simulated processes
// and drains the environment.
func concurrently(env *sim.Env, procs, n int, op func(p *sim.Proc)) {
	per := (n + procs - 1) / procs
	for w := 0; w < procs; w++ {
		env.Go("seam", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				op(p)
			}
		})
	}
	env.Run(sim.Forever)
}

// inSim runs fn as a process of c's simulation until it returns. The
// cloud's own background processes never finish, so fn stops the run.
func inSim(c *core.Cloud, fn func(p *sim.Proc) error) error {
	var err error
	c.Go("seam", func(p *sim.Proc) {
		err = fn(p)
		p.Env().Stop()
	})
	c.Run(sim.Forever)
	return err
}

func servingSeams(seed int64, measure func(name, allocsName string, scale float64, fn func(n int) error) error) error {
	cfg := core.DefaultConfig(seed)
	cfg.Plane.Shards = 4
	cfg.Record = false
	c, err := core.New(cfg)
	if err != nil {
		return err
	}
	quantum := sim.NewPaced(c.Env(), sim.PacedConfig{QuantumS: serveQuantumS})
	if err := measure("paced.quantum_ns", "", 1, func(n int) error {
		quantum.Run(c.Env().Now() + float64(n)*serveQuantumS)
		return nil
	}); err != nil {
		return err
	}

	if c, err = core.New(cfg); err != nil {
		return err
	}
	drv := sim.NewPaced(c.Env(), sim.PacedConfig{QuantumS: serveQuantumS})
	fe := core.NewFrontend(c, drv, core.FrontendConfig{Orgs: serveOrgs})
	srv := api.NewServer(fe)
	done := make(chan struct{})
	go func() {
		drv.Run(sim.Forever)
		close(done)
	}()
	defer func() {
		drv.Stop()
		<-done
	}()
	tplName := fe.Catalog()[0].Name

	// wait polls a task until it is terminal.
	wait := func(id int64) error {
		for {
			ti, ok := fe.Task(id)
			if !ok {
				return fmt.Errorf("task %d vanished", id)
			}
			if ti.State.Terminal() {
				if ti.State != core.TaskSuccess {
					return fmt.Errorf("task %d: %s", id, ti.Error)
				}
				return nil
			}
			runtime.Gosched()
		}
	}
	if err := measure("core.submit_ns", "", 2, func(n int) error {
		for i := 0; i < n; i++ {
			id, err := fe.SubmitOp(core.OpRequest{Kind: core.OpInstantiate, Org: "org0", Template: tplName})
			if err == nil {
				err = wait(id)
			}
			if err != nil {
				return err
			}
			ti, _ := fe.Task(id)
			if id, err = fe.SubmitOp(core.OpRequest{Kind: core.OpDelete, Org: "org0", VApp: ti.VApp}); err == nil {
				err = wait(id)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	serve := func(method, path, body, token string, want int) error {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(api.AuthHeader, token)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != want {
			return fmt.Errorf("%s %s: status %d", method, path, rec.Code)
		}
		return nil
	}
	login := httptest.NewRequest(http.MethodPost, "/api/sessions", nil)
	login.SetBasicAuth("seam@org0", "seam")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, login)
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("create session: status %d", rec.Code)
	}
	token := rec.Header().Get(api.AuthHeader)

	if err := measure("api.org_get_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			if err := serve(http.MethodGet, "/api/org/org0", "", token, http.StatusOK); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := measure("api.task_get_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			if err := serve(http.MethodGet, "/api/task/1", "", token, http.StatusOK); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	body := fmt.Sprintf(`{"template":%q,"vms":1}`, tplName)
	return measure("api.instantiate_ns", "", 1, func(n int) error {
		for i := 0; i < n; i++ {
			if err := serve(http.MethodPost, "/api/vdc/provider-vdc/action/instantiateVAppTemplate", body, token, http.StatusAccepted); err != nil {
				return err
			}
		}
		return nil
	})
}
