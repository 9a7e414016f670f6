package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// The five workloads. Each exercises a different set of layers; the
// README records why each was chosen and which layer metrics should move
// with which end-to-end metric on it.
const (
	wDeployLoop = "deploy-loop"
	wOpsMix     = "ops-mix"
	wInventory  = "inventory-1e5"
	wServe      = "serve-paced"
	wSuite      = "suite"
)

var workloadNames = []string{wDeployLoop, wOpsMix, wInventory, wServe, wSuite}

// batch describes one batch workload: how to build its cloud (set-up)
// and how far to run it (the measured phase).
type batch struct {
	build func(seed int64, horizonS float64, quick, metrics bool) (*core.Cloud, error)
	// horizonS is the virtual time a repetition simulates (quickS with
	// -quick).
	horizonS, quickS float64
	// latTasks is the unit of the latency samples: the host time the
	// simulator takes to complete this many more tasks. It keeps a
	// repetition above a thousand samples, enough for a p99.
	latTasks int
}

func (b batch) horizon(quick bool) float64 {
	if quick {
		return b.quickS
	}
	return b.horizonS
}

var batches = map[string]batch{
	// E6's crossover configuration: one shard, linked clones, no storage
	// rebalancer, trace on, and 64 closed-loop deploy→delete clients. The
	// horizon stays far below ~2.6e5 virtual s, past which unreclaimed
	// shadow templates fill every datastore and the loop stalls; six
	// virtual hours keep the trace, and so the heap, small enough that
	// repetition times stay steady on a shared host.
	wDeployLoop: {
		build: func(seed int64, horizonS float64, quick, metrics bool) (*core.Cloud, error) {
			cfg := core.DefaultConfig(seed)
			cfg.Director.FastProvisioning = true
			cfg.Director.RebalanceThreshold = 0
			cfg.Metrics = metrics
			c, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			startClosedLoop(c, 64, horizonS)
			return c, nil
		},
		horizonS: 6 * 3600, quickS: 3600, latTasks: 10,
	},
	// The CloudA profile at four times its arrival rate, open-loop in
	// virtual time, on four shards with faults, retries, all three
	// reconcile controllers and DRS: the mixed operation set through the
	// same mgmt.Execute path, with cross-shard traffic. Six virtual hours
	// cover the night trough and the morning ramp of the diurnal profile.
	wOpsMix: {
		build: func(seed int64, horizonS float64, quick, metrics bool) (*core.Cloud, error) {
			cfg := core.DefaultConfig(seed)
			cfg.Plane.Shards = 4
			f := faults.Preset(0.1)
			cfg.Faults = &f
			cfg.Reconcile = &reconcile.Config{Controllers: []string{
				reconcile.ControllerDrift, reconcile.ControllerCatalog, reconcile.ControllerRebalance,
			}}
			cfg.DRS = drs.DefaultConfig()
			cfg.Metrics = metrics
			c, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			p := workload.CloudA()
			p.BaseRatePerHour *= 4
			if _, err := c.StartProfile(p, horizonS); err != nil {
				return nil, err
			}
			return c, nil
		},
		horizonS: 6 * 3600, quickS: 3600, latTasks: 5,
	},
	// 10^5 prepopulated VMs on E19's scaled topology (782 hosts, 20
	// datastores) behind four shards, then the 64-client closed loop:
	// set-up, the inventory indexes and the heap do the work here.
	wInventory: {
		build: func(seed int64, horizonS float64, quick, metrics bool) (*core.Cloud, error) {
			vms := inventoryVMs(quick)
			cfg := inventoryConfig(seed, vms)
			cfg.Metrics = metrics
			c, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			if err := c.PrepopulateVMs(vms); err != nil {
				return nil, err
			}
			startClosedLoop(c, 64, horizonS)
			return c, nil
		},
		horizonS: 3600, quickS: 600, latTasks: 25,
	},
}

func inventoryVMs(quick bool) int {
	if quick {
		return 10000
	}
	return 100000
}

// inventoryConfig is E19's topology scaled for vms prepopulated VMs, with
// the data plane de-bottlenecked so the management plane is measured.
func inventoryConfig(seed int64, vms int) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Topology.Hosts = (vms + 127) / 128
	cfg.Topology.Datastores = (vms + 4999) / 5000
	cfg.Topology.DatastoreMBps = 4000
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0
	cfg.Director.MaxChainLen = 1 << 20
	cfg.Plane.Shards = 4
	return cfg
}

// startClosedLoop spawns the E6 closed-loop clients: each deploys a
// one-VM vApp, deletes it, and thinks for 0.1–0.5 virtual s. The think
// stream and org naming match the repository's closed-loop harness.
func startClosedLoop(c *core.Cloud, clients int, horizonS float64) {
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	stream := rng.Derive(c.Config().Seed, "e6")
	for i := 0; i < clients; i++ {
		org := fmt.Sprintf("org%d", i%8)
		c.Go(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			for p.Now() < horizonS {
				res := c.Director().DeployVApp(p, org, tpl, 1, false)
				if res.Err == nil || (res.VApp != nil && inv.VApp(res.VApp.ID) != nil) {
					c.Director().DeleteVApp(p, res.VApp, org)
				}
				p.Sleep(stream.Uniform(0.1, 0.5))
			}
		})
	}
}

// runBatch runs one repetition of a batch workload: build the cloud
// (set-up), then run it to the horizon, sampling the host time of every
// b.latTasks completed tasks. The digest covers every trace record plus
// the task and error counts. A traced repetition (prof non-nil) runs
// with the metrics registry on and profiles set-up and the run.
func runBatch(name string, seed int64, quick bool, prof *profiler) (rep, error) {
	b, ok := batches[name]
	if !ok {
		return rep{}, fmt.Errorf("not a batch workload: %q", name)
	}
	var r rep
	if err := prof.start(); err != nil {
		return r, err
	}
	t0 := time.Now()
	c, err := b.build(seed, b.horizon(quick), quick, prof != nil)
	if err != nil {
		return r, fmt.Errorf("%s: set-up: %w", name, err)
	}
	r.SetupS = time.Since(t0).Seconds()

	var (
		done int
		last time.Time
	)
	c.Plane().AddTaskSink(func(*mgmt.Task) {
		if done++; done%b.latTasks == 0 {
			now := time.Now()
			r.LatMS = append(r.LatMS, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
		}
	})
	m := startMeter()
	last = m.t0
	c.Run(b.horizon(quick))
	m.stop(&r)
	if err := prof.stop(); err != nil {
		return r, err
	}

	recs := c.Records()
	r.Ops = int64(len(recs))
	for i := range recs {
		if recs[i].Err != "" {
			r.OpsFailed++
		}
	}
	hash := sha256.New()
	if err := trace.WriteJSONL(hash, recs); err != nil {
		return r, err
	}
	fmt.Fprintf(hash, "tasks %d errors %d\n", c.Plane().TasksCompleted(), c.Plane().TaskErrors())
	r.Digest = hex.EncodeToString(hash.Sum(nil))
	r.Sim = simLayers(c, recs)
	if prof != nil {
		r.Registry, err = registryJSON(c)
	}
	return r, err
}

// registryJSON renders the cloud's metrics-registry snapshot.
func registryJSON(c *core.Cloud) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.MetricsSnapshot().WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// simLayers reads the simulated per-layer values: the mean deploy
// latency breakdown (virtual seconds), stage utilizations, and the
// layers' activity counters. They are deterministic for a seed, so a
// change that only speeds up the simulator must leave them unchanged.
func simLayers(c *core.Cloud, recs []trace.Record) map[string]float64 {
	out := map[string]float64{}
	if b, ok := analysis.MeanBreakdown(recs, "deploy"); ok {
		out["vt.queue_s"], out["vt.cell_s"], out["vt.mgmt_s"] = b.Queue, b.Cell, b.Mgmt
		out["vt.db_s"], out["vt.host_s"], out["vt.data_s"] = b.DB, b.Host, b.Data
	}
	maxInto := func(key string, v float64) {
		if v > out[key] {
			out[key] = v
		}
	}
	for _, s := range c.BottleneckReport() {
		switch {
		case strings.HasSuffix(s.Stage, "mgmt.threads"):
			maxInto("util.mgmt_threads", s.Utilization)
		case strings.Contains(s.Stage, "mgmt.db"):
			maxInto("util.mgmt_db", s.Utilization)
		case strings.HasPrefix(s.Stage, "cell"):
			maxInto("util.cell_max", s.Utilization)
		case strings.HasPrefix(s.Stage, "hostagent:"):
			maxInto("util.host_agent_max", s.Utilization)
		case strings.HasPrefix(s.Stage, "datastore:"):
			maxInto("util.datastore_max", s.Utilization)
		}
	}
	pl := c.Plane()
	out["mgmt.retries"] = float64(pl.RetryStats().Retries)
	out["plane.cross_shard_ops"] = float64(pl.Stats().CrossOps)
	out["drs.moves"] = float64(c.DRS().Stats().Moves)
	for _, s := range c.ReconcileStats() {
		out["reconcile.runs"] += float64(s.Runs)
		out["reconcile.drops"] += float64(s.Drops)
	}
	ds := c.Director().Stats()
	out["clouddir.shadow_copies"] = float64(ds.ShadowCopies)
	out["clouddir.placement_fallbacks"] = float64(ds.PlacementFallbacks)
	return out
}

// runSuite runs the E1..E16 paper suite once at CI scale on one worker
// (the artifact is byte-identical at any worker count; two workers on
// the host's two shared vCPUs made its time metrics spread more, 12–13%
// against 7–12% over ten interleaved runs). Its set-up metric is the
// default cloud build every experiment repeats; its latency samples are
// the times at which each artifact completes; its digest is the rendered
// suite's.
func runSuite(seed int64, prof *profiler) (rep, error) {
	var r rep
	if err := prof.start(); err != nil {
		return r, err
	}
	t0 := time.Now()
	if _, err := core.New(core.DefaultConfig(seed)); err != nil {
		return r, err
	}
	r.SetupS = time.Since(t0).Seconds()

	var mu sync.Mutex
	hash := sha256.New()
	m := startMeter()
	err := core.RunAllWith(hash, seed, true, core.RunAllOptions{
		Workers: 1,
		Progress: func(_, _ int, elapsed time.Duration) {
			mu.Lock()
			r.LatMS = append(r.LatMS, float64(elapsed)/float64(time.Millisecond))
			mu.Unlock()
		},
	})
	m.stop(&r)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return r, fmt.Errorf("suite: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	r.Ops = int64(len(core.Experiments()))
	if len(r.LatMS) != int(r.Ops) {
		return r, fmt.Errorf("suite: %d artifacts completed, want %d", len(r.LatMS), r.Ops)
	}
	r.Digest = hex.EncodeToString(hash.Sum(nil))
	return r, nil
}
