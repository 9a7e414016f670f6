// Command mcpsim runs one simulated self-service cloud under a workload
// profile and prints the characterization summary: operation mix, latency
// breakdowns, director activity, and control-plane resource utilization.
// The cloud is configured only through the shared scenario surface:
// -config file.json, -seed, and repeatable -set path=value overrides of
// the scenario schema (see scenarios/ and mcpsim -dump-config).
//
//	mcpsim -profile cloud-a -hours 24
//	mcpsim -profile cloud-b -hours 8 -set director.fastProvisioning=false   # full-clone baseline
//	mcpsim -set topology.hosts=64 -set topology.datastores=16 -set director.cells=4
//	mcpsim -set plane.shards=4 -set plane.db=per-shard    # sharded management plane
//	mcpsim -set 'reconcile={"intervalS":120}'             # always-on reconciliation
//	mcpsim -config scenarios/fault-burst.json             # faults, retries, goodput tables
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/workload"
)

// options is one parsed command line: the run flags plus the loaded
// configuration.
type options struct {
	profile    string
	hours      float64
	dumpConfig bool
	metricsOut string
	cfg        core.Config
}

// parseArgs binds mcpsim's run flags and the shared configuration flags
// on fs, parses args, and loads the configuration.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.profile, "profile", "cloud-a", "workload profile: cloud-a, cloud-b, classic-dc")
	fs.Float64Var(&o.hours, "hours", 12, "simulated hours")
	fs.BoolVar(&o.dumpConfig, "dump-config", false, "print the default scenario JSON at the configured seed and exit")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the metrics snapshot to this file (.json, .csv, or ASCII)")
	load := core.BindConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.hours <= 0 {
		return o, fmt.Errorf("-hours must be > 0, got %g", o.hours)
	}
	var err error
	o.cfg, err = load()
	return o, err
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if o.dumpConfig {
		if err := core.WriteDefaultConfig(os.Stdout, o.cfg.Seed); err != nil {
			fatal(err)
		}
		return
	}
	profile, err := workload.ByName(o.profile)
	if err != nil {
		fatal(err)
	}
	// Buffer stdout and check the flush: a broken pipe or full disk must
	// exit non-zero, not truncate the artifact with exit status 0.
	out := bufio.NewWriter(os.Stdout)
	err = run(out, o.cfg, profile, o.hours, o.metricsOut)
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err != nil {
		fatal(err)
	}
}

// run simulates profile for hours under cfg and writes the summary to w.
// Every report section follows from cfg itself: the fault tables from
// cfg.Faults, the reconcile table from cfg.Reconcile, and the metrics
// tables from cfg.Metrics. metricsOut additionally writes the snapshot to
// a file, turning collection on without printing the tables.
func run(w io.Writer, cfg core.Config, profile workload.Profile, hours float64, metricsOut string) error {
	showMetrics := cfg.Metrics
	if metricsOut != "" {
		cfg.Metrics = true
	}
	cloud, err := core.New(cfg)
	if err != nil {
		return err
	}
	st, err := cloud.RunProfile(profile, hours*core.Hour)
	if err != nil {
		return err
	}
	recs := cloud.Records()

	// Each section renders after a blank line.
	var sections []func(io.Writer) error
	add := func(t *report.Table) {
		if t != nil {
			sections = append(sections, t.Render)
		}
	}

	mixT := report.NewTable("Operation mix", "operation", "count", "%", "errors")
	for _, row := range analysis.OpMix(recs) {
		mixT.AddRow(row.Kind, row.Count, 100*row.Frac, row.Errors)
	}
	add(mixT)

	latT := report.NewTable("Latency by operation (successful)",
		"operation", "n", "mean s", "p50 s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data", "ctl%")
	for _, row := range analysis.LatencyByKind(recs) {
		b := row.MeanBreakdown
		latT.AddRow(row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data, 100*analysis.ControlShare(b))
	}
	add(latT)

	burst := analysis.MeasureBurstiness(recs, 600, "")
	dirStats := cloud.Director().Stats()
	rr := cloud.Manager().Resources()
	sumT := report.NewTable("Control plane summary", "metric", "value")
	sumT.AddRow("ops per hour (mean)", float64(len(recs))/hours)
	sumT.AddRow("burstiness peak:mean (10 min bins)", burst.PeakToMean)
	sumT.AddRow("index of dispersion", burst.IndexOfDispersion)
	sumT.AddRow("vApps deployed", dirStats.VAppsDeployed)
	sumT.AddRow("shadow template copies", dirStats.ShadowCopies)
	sumT.AddRow("lease expiries", dirStats.LeaseExpiries)
	sumT.AddRow("rebalance passes started", dirStats.RebalanceStarts)
	sumT.AddRow("mgmt thread utilization", rr.Threads.Utilization)
	sumT.AddRow("mgmt DB utilization", cloud.DBUtilization())
	sumT.AddRow("admission mean queue", rr.Admission.MeanQueueLen)
	sumT.AddRow("task errors", cloud.Plane().TaskErrors())
	add(sumT)

	btT := report.NewTable("Bottleneck attribution (most utilized first)", "stage", "utilization", "mean queue")
	for _, st := range cloud.BottleneckReport() {
		btT.AddRow(st.Stage, st.Utilization, st.MeanQueue)
	}
	add(btT)

	if pl := cloud.Plane(); pl.ShardCount() > 1 {
		add(report.ShardTable(cloud.ShardReport()))
		ps := pl.Stats()
		add(report.CrossShardTable(ps.CrossOps, pl.TasksCompleted(), ps.CoordS))
	}

	if cfg.Faults != nil {
		rs := cloud.Plane().RetryStats()
		rtT := report.NewTable(fmt.Sprintf("Fault injection (rate %.2f) and retries", cfg.Faults.Host.FailProb), "metric", "value")
		rtT.AddRow("attempts", rs.Attempts)
		rtT.AddRow("injected faults", rs.Faults)
		rtT.AddRow("retries", rs.Retries)
		rtT.AddRow("give-ups (attempts exhausted)", rs.GiveUps)
		rtT.AddRow("give-ups (deadline)", rs.Deadline)
		add(rtT)
		add(report.GoodputTable(cloud.Plane().Goodput()))
	}

	if cfg.Reconcile != nil {
		add(report.ReconcileTable(cloud.ReconcileStats()))
	}

	snap := cloud.MetricsSnapshot()
	if snap != nil && showMetrics {
		sections = append(sections, func(w io.Writer) error { return report.WriteMetrics(w, snap) })
		add(report.BottleneckTable(snap, 10))
	}

	if _, err := fmt.Fprintf(w, "mcpsim: %s for %.1f h (fast=%v): %d vApp requests, %d ops recorded\n",
		profile.Name, hours, cfg.Director.FastProvisioning, st.Arrivals, len(recs)); err != nil {
		return err
	}
	for _, render := range sections {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := render(w); err != nil {
			return err
		}
	}
	if snap != nil && metricsOut != "" {
		if err := report.WriteMetricsFile(metricsOut, snap); err != nil {
			return err
		}
	}
	if err := cloud.Inventory().CheckInvariants(); err != nil {
		return fmt.Errorf("post-run invariant check failed: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpsim:", err)
	os.Exit(1)
}
