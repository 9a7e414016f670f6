package sim_test

import (
	"fmt"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// deployLoopWakesPerTask runs the benchmark's deploy-loop workload (E6's
// crossover configuration: one shard, linked clones, no rebalancer and
// 64 closed-loop deploy→delete clients) for horizon virtual seconds and
// returns the kernel's switches into processes per completed task.
func deployLoopWakesPerTask(t *testing.T, seed int64, horizon sim.Time) float64 {
	t.Helper()
	cfg := core.DefaultConfig(seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	stream := rng.Derive(seed, "e6")
	for i := 0; i < 64; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			for p.Now() < horizon {
				res := c.Director().DeployVApp(p, org, tpl, 1, false)
				if res.Err == nil || (res.VApp != nil && inv.VApp(res.VApp.ID) != nil) {
					c.Director().DeleteVApp(p, res.VApp, org)
				}
				p.Sleep(stream.Uniform(0.1, 0.5))
			}
		})
	}
	c.Run(horizon)
	tasks := c.Plane().TasksCompleted()
	if tasks == 0 {
		t.Fatal("deploy loop completed no task")
	}
	return float64(c.Env().Wakes()) / float64(tasks)
}

// A deploy runs on its caller and shadow-copy waiters re-check in
// callbacks, so the quick deploy loop switches into a process at most
// 4.6 times per task (it took 6.07 when every one-VM vApp spawned a
// worker and every finished shadow copy woke its whole herd).
func TestDeployLoopWakesPerTask(t *testing.T) {
	const budget = 4.6
	got := deployLoopWakesPerTask(t, 1, 3600)
	t.Logf("deploy loop: %.3f wakes per task", got)
	if got > budget {
		t.Fatalf("deploy loop switches into a process %.3f times per task, want <= %.1f", got, budget)
	}
}
