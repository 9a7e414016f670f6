// Command mcpsim runs one simulated self-service cloud under a workload
// profile and prints the characterization summary: operation mix, latency
// breakdowns, director activity, and control-plane resource utilization.
//
//	mcpsim -profile cloud-a -hours 24
//	mcpsim -profile cloud-b -hours 8 -fast=false   # full-clone baseline
//	mcpsim -hosts 64 -datastores 16 -cells 4
//	mcpsim -shards 4 -plane-db per-shard           # sharded management plane
//	mcpsim -reconcile -reconcile-interval 120      # always-on reconciliation
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/report"
	"cloudmcp/internal/workload"
)

func main() {
	var (
		profileName = flag.String("profile", "cloud-a", "workload profile: cloud-a, cloud-b, classic-dc")
		hours       = flag.Float64("hours", 12, "simulated hours")
		seed        = flag.Int64("seed", 1, "master random seed")
		fast        = flag.Bool("fast", true, "use fast provisioning (linked clones)")
		hosts       = flag.Int("hosts", 32, "hypervisor hosts")
		datastores  = flag.Int("datastores", 8, "shared datastores")
		cells       = flag.Int("cells", 2, "director cells")
		policyName  = flag.String("policy", "", "named policy set for placement/DRS/HA/retry/admission decisions (see internal/policy)")
		configPath  = flag.String("config", "", "JSON scenario file (overrides the topology flags)")
		dumpConfig  = flag.Bool("dump-config", false, "print the default scenario JSON and exit")
		showMetrics = flag.Bool("metrics", false, "collect and print per-layer resource metrics")
		metricsOut  = flag.String("metrics-out", "", "write the metrics snapshot to this file (.json, .csv, or ASCII)")
		withFaults  = flag.Bool("faults", false, "inject control-plane faults (preset at -fault-rate) and retry with backoff")
		faultRate   = flag.Float64("fault-rate", 0.1, "base transient-failure probability for the fault preset (implies -faults)")
		shards      = flag.Int("shards", 1, "management-server shards behind the director")
		planeDB     = flag.String("plane-db", "shared", "management DB mode across shards: shared or per-shard")
		reconcileOn = flag.Bool("reconcile", false, "run the always-on reconciliation plane (drift, catalog, rebalance controllers)")
		recInterval = flag.Float64("reconcile-interval", 300, "reconciliation resync interval in seconds (implies -reconcile)")
		recDepth    = flag.Int("reconcile-depth", 2, "reconciliation worker depth per controller (implies -reconcile)")
	)
	flag.Parse()
	faultsOn := *withFaults
	recOn := *reconcileOn
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fault-rate":
			faultsOn = true
		case "reconcile-interval", "reconcile-depth":
			recOn = true
		}
	})

	// Reject inconsistent flag values up front with a clear message
	// instead of clamping silently or panicking deep inside core.
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	if *planeDB != string(plane.DBShared) && *planeDB != string(plane.DBPerShard) {
		fatal(fmt.Errorf("-plane-db must be %q or %q, got %q", plane.DBShared, plane.DBPerShard, *planeDB))
	}
	if faultsOn && (*faultRate < 0 || *faultRate > 1) {
		fatal(fmt.Errorf("-fault-rate must be in [0,1], got %g", *faultRate))
	}
	if err := validateReconcileFlags(recOn, *recInterval, *recDepth); err != nil {
		fatal(err)
	}
	if *hours <= 0 {
		fatal(fmt.Errorf("-hours must be > 0, got %g", *hours))
	}
	if *hosts < 1 || *datastores < 1 || *cells < 1 {
		fatal(fmt.Errorf("-hosts, -datastores, and -cells must be >= 1, got %d/%d/%d", *hosts, *datastores, *cells))
	}
	if *shards > *hosts {
		fatal(fmt.Errorf("-shards %d exceeds -hosts %d: a shard needs at least one host", *shards, *hosts))
	}

	if *dumpConfig {
		if err := core.WriteDefaultConfig(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	}
	profile, err := workload.ByName(*profileName)
	if err != nil {
		fatal(err)
	}
	var cfg core.Config
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = core.LoadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		cfg = core.DefaultConfig(*seed)
		cfg.Topology.Hosts = *hosts
		cfg.Topology.Datastores = *datastores
		cfg.Director.Cells = *cells
		cfg.Director.FastProvisioning = *fast
		cfg.Plane.Shards = *shards
		cfg.Plane.DB = plane.DBMode(*planeDB)
	}
	if *policyName != "" {
		if _, err := policy.Named(*policyName); err != nil {
			fatal(err)
		}
		cfg.Policy = *policyName
	}
	if faultsOn {
		fc := faults.Preset(*faultRate)
		cfg.Faults = &fc
	}
	if recOn {
		rc := reconcile.DefaultConfig()
		rc.Controllers = reconcile.ControllerNames()
		rc.IntervalS = *recInterval
		rc.Depth = *recDepth
		cfg.Reconcile = &rc
	}
	if *showMetrics || *metricsOut != "" {
		cfg.Metrics = true
	}
	cloud, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	horizon := *hours * core.Hour
	st, err := cloud.RunProfile(profile, horizon)
	if err != nil {
		fatal(err)
	}
	recs := cloud.Records()

	fmt.Printf("mcpsim: %s for %.1f h (fast=%v): %d vApp requests, %d ops recorded\n\n",
		profile.Name, *hours, *fast, st.Arrivals, len(recs))

	mixT := report.NewTable("Operation mix", "operation", "count", "%", "errors")
	for _, row := range analysis.OpMix(recs) {
		mixT.AddRow(row.Kind, row.Count, 100*row.Frac, row.Errors)
	}
	render(mixT)
	fmt.Println()

	latT := report.NewTable("Latency by operation (successful)",
		"operation", "n", "mean s", "p50 s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data", "ctl%")
	for _, row := range analysis.LatencyByKind(recs) {
		b := row.MeanBreakdown
		latT.AddRow(row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data, 100*analysis.ControlShare(b))
	}
	render(latT)
	fmt.Println()

	burst := analysis.MeasureBurstiness(recs, 600, "")
	dirStats := cloud.Director().Stats()
	rr := cloud.Manager().Resources()
	sumT := report.NewTable("Control plane summary", "metric", "value")
	sumT.AddRow("ops per hour (mean)", float64(len(recs))/(*hours))
	sumT.AddRow("burstiness peak:mean (10 min bins)", burst.PeakToMean)
	sumT.AddRow("index of dispersion", burst.IndexOfDispersion)
	sumT.AddRow("vApps deployed", dirStats.VAppsDeployed)
	sumT.AddRow("shadow template copies", dirStats.ShadowCopies)
	sumT.AddRow("lease expiries", dirStats.LeaseExpiries)
	sumT.AddRow("rebalance passes started", dirStats.RebalanceStarts)
	sumT.AddRow("mgmt thread utilization", rr.Threads.Utilization)
	sumT.AddRow("mgmt DB utilization", rr.DB.Utilization)
	sumT.AddRow("admission mean queue", rr.Admission.MeanQueueLen)
	sumT.AddRow("task errors", cloud.Plane().TaskErrors())
	render(sumT)
	fmt.Println()

	btT := report.NewTable("Bottleneck attribution (most utilized first)", "stage", "utilization", "mean queue")
	for _, st := range cloud.BottleneckReport() {
		btT.AddRow(st.Stage, st.Utilization, st.MeanQueue)
	}
	render(btT)

	if pl := cloud.Plane(); pl.ShardCount() > 1 {
		fmt.Println()
		render(report.ShardTable(cloud.ShardReport()))
		ps := pl.Stats()
		if ct := report.CrossShardTable(ps.CrossOps, pl.TasksCompleted(), ps.CoordS); ct != nil {
			fmt.Println()
			render(ct)
		}
	}

	if faultsOn {
		fmt.Println()
		rs := cloud.Plane().RetryStats()
		rtT := report.NewTable(fmt.Sprintf("Fault injection (rate %.2f) and retries", *faultRate), "metric", "value")
		rtT.AddRow("attempts", rs.Attempts)
		rtT.AddRow("injected faults", rs.Faults)
		rtT.AddRow("retries", rs.Retries)
		rtT.AddRow("give-ups (attempts exhausted)", rs.GiveUps)
		rtT.AddRow("give-ups (deadline)", rs.Deadline)
		render(rtT)
		if gt := report.GoodputTable(cloud.GoodputReport()); gt != nil {
			fmt.Println()
			render(gt)
		}
	}

	if recOn {
		if rt := report.ReconcileTable(cloud.ReconcileReport()); rt != nil {
			fmt.Println()
			render(rt)
		}
	}

	if snap := cloud.MetricsSnapshot(); snap != nil {
		if *showMetrics {
			fmt.Println()
			if err := snap.WriteASCII(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			render(report.BottleneckTable(snap, 10))
		}
		if *metricsOut != "" {
			if err := snap.WriteFile(*metricsOut); err != nil {
				fatal(err)
			}
		}
	}

	if err := cloud.Inventory().CheckInvariants(); err != nil {
		fatal(fmt.Errorf("post-run invariant check failed: %w", err))
	}
}

// validateReconcileFlags mirrors the -shards convention: bad values are
// rejected up front with a clear message and a non-zero exit rather than
// clamped or passed through to panic deep inside core. The checks apply
// whenever the reconciliation plane would be enabled.
func validateReconcileFlags(on bool, intervalS float64, depth int) error {
	if !on {
		return nil
	}
	if intervalS <= 0 {
		return fmt.Errorf("-reconcile-interval must be > 0, got %g", intervalS)
	}
	if depth < 1 {
		return fmt.Errorf("-reconcile-depth must be >= 1, got %d", depth)
	}
	return nil
}

// render writes a table to stdout, failing loudly instead of letting a
// broken pipe or full disk truncate the artifact with exit status 0.
func render(t *report.Table) {
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpsim:", err)
	os.Exit(1)
}
