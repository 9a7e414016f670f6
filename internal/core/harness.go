package core

// The experiment harness: the few load shapes the experiments compose.
// Each shape is written once here, and an experiment builds its scenario
// by calling these drivers rather than copying a loop. Spawn order and
// random-stream labels set event order and seeds, so every caller passes
// its historical label and the drivers keep their spawn order; process
// names carry no meaning.

import (
	"fmt"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/stats"
)

// thinkTime returns the closed loop's usual think time: a uniform draw in
// [0.1, 0.5) s from the stream (seed, label), shared by all clients,
// which decorrelates them.
func thinkTime(seed int64, label string) func() float64 {
	stream := rng.Derive(seed, label)
	return func() float64 { return stream.Uniform(0.1, 0.5) }
}

// startClosedLoop spawns `clients` closed-loop clients. Each deploys a
// one-VM vApp of the first template as org i%8, deletes it (a failed
// deploy's too, if it left one behind), sleeps think(), and repeats while
// the clock is below untilS.
func startClosedLoop(c *Cloud, clients int, untilS float64, think func() float64) {
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	for i := 0; i < clients; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go("client", func(p *sim.Proc) {
			for p.Now() < untilS {
				res := c.Director().DeployVApp(p, org, tpl, 1, false)
				if res.Err == nil || (res.VApp != nil && inv.VApp(res.VApp.ID) != nil) {
					c.Director().DeleteVApp(p, res.VApp, org)
				}
				p.Sleep(think())
			}
		})
	}
}

// deployWindow measures the deploys submitted in [lo, hi): successful
// deploys per hour, their latency sample, and how many failed.
func deployWindow(c *Cloud, lo, hi float64) (perHour float64, lat *stats.Sample, failed int) {
	all := analysis.FilterKind(analysis.FilterTime(c.Records(), lo, hi), ops.KindDeploy.String())
	lat = analysis.LatencySample(all, "")
	ok := int(lat.Count())
	return float64(ok) / (hi - lo) * Hour, lat, len(all) - ok
}

// startOpenLoop feeds the cloud Poisson single-VM deploy arrivals at
// ratePerHour until horizon, drawn from the stream (seed, label). Each
// request picks a random template and a Zipf-skewed org, and its vApp
// lives lifetimeS before it is deleted; a failed deploy's vApp, if one
// was left behind, is deleted at once.
func startOpenLoop(c *Cloud, label string, ratePerHour, horizon, lifetimeS float64) {
	inv := c.Inventory()
	stream := rng.Derive(c.cfg.Seed, label)
	// Tenant activity is heavily skewed in real self-service clouds; the
	// Zipf draw is what makes sticky placement fill datastores unevenly.
	orgZipf := rng.NewZipf(stream, 8, 1.2)
	c.Go("arrivals", func(p *sim.Proc) {
		for {
			p.Sleep(stream.Exponential(Hour / ratePerHour))
			if p.Now() >= horizon {
				return
			}
			org := fmt.Sprintf("org%d", orgZipf.Draw())
			tpl := inv.Template(inv.Templates()[stream.Intn(len(inv.Templates()))])
			c.Go("req", func(rp *sim.Proc) {
				res := c.Director().DeployVApp(rp, org, tpl, 1, false)
				if res.VApp == nil || inv.VApp(res.VApp.ID) == nil {
					return
				}
				if res.Err != nil {
					c.Director().DeleteVApp(rp, res.VApp, org)
					return
				}
				va := res.VApp // the timer holds the vApp, not the deploy's tasks
				c.env.GoAfter(lifetimeS, func(dp *sim.Proc) {
					if inv.VApp(va.ID) != nil {
						c.Director().DeleteVApp(dp, va, org)
					}
				})
			})
		}
	})
}

// openLoopCloud builds a cloud from cfg, runs the "openloop" stream of
// Poisson single-VM deploys (see startOpenLoop) on it for horizon
// seconds, and returns the cloud after the run.
func openLoopCloud(cfg Config, ratePerHour, horizon, lifetimeS float64) (*Cloud, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	startOpenLoop(c, "openloop", ratePerHour, horizon, lifetimeS)
	c.Run(horizon)
	return c, nil
}

// paperEra sizes the manager to the paper's era (4 worker threads, 2 DB
// connections) with datastore rebalancing off: the base of the loaded
// sweeps E7, E9, E14 and E16, so background load contends on the
// manager itself.
var paperEra = []string{"mgmt.threads=4", "mgmt.dbConns=2", "director.rebalanceThreshold=0"}

// loadResidentHost loads host 0 with n powered-on linked clones (org
// "resident", datastores round-robin), runs until horizon/100 so they
// settle, and then, if ratePerHour is above 0, starts the "e14-load"
// open loop with 600 s lifetimes until horizon. It returns host 0.
func loadResidentHost(c *Cloud, n int, ratePerHour, horizon float64) *inventory.Host {
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	target := inv.Host(inv.Hosts()[0])
	c.Go("prep", func(pp *sim.Proc) {
		for i := 0; i < n; i++ {
			ds := inv.Datastore(inv.Datastores()[i%len(inv.Datastores())])
			vm, task := c.Manager().DeployVM(pp, fmt.Sprintf("res%d", i), tpl, target, ds, ops.LinkedClone, mgmt.ReqCtx{Org: "resident"})
			if task.Err != nil {
				continue
			}
			c.Manager().PowerOn(pp, vm, mgmt.ReqCtx{Org: "resident"})
		}
	})
	c.Run(horizon / 100)
	if ratePerHour > 0 {
		startOpenLoop(c, "e14-load", ratePerHour, horizon, 600)
	}
	return target
}

// runFailoverStorm runs the failover-storm scenario on a fresh cloud to
// horizon: a protected fleet of fleetVMs powered-on VMs in 8 vApps
// deployed up front, `clients` closed-loop clients on the stream (seed,
// label) throughout, and at horizon/2 the failure of the busiest
// in-service host through eng. onFail runs in the failing process right
// after the failover; it is skipped when no host is in service.
func runFailoverStorm(c *Cloud, eng *ha.Engine, fleetVMs, clients int, label string, horizon float64, onFail func(*ha.Failover)) {
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	per := (fleetVMs + 7) / 8
	for i := 0; i < 8; i++ {
		org := fmt.Sprintf("fleet%d", i)
		c.Go(org, func(fp *sim.Proc) {
			c.Director().DeployVApp(fp, org, tpl, per, true)
		})
	}
	startClosedLoop(c, clients, horizon, thinkTime(c.cfg.Seed, label))
	c.Go("failer", func(fp *sim.Proc) {
		fp.Sleep(horizon / 2)
		var busiest *inventory.Host
		for _, id := range inv.Hosts() {
			h := inv.Host(id)
			if h.InService() && (busiest == nil || len(h.VMs) > len(busiest.VMs)) {
				busiest = h
			}
		}
		if busiest == nil {
			return
		}
		onFail(eng.FailHost(fp, busiest))
	})
	c.Run(horizon)
}
