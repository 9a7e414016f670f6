// Command mcpbench runs the full experiment suite (E1..E16, the
// reconstructed paper tables/figures plus the extensions) and prints
// every artifact. Experiments and their internal parameter sweeps run in
// parallel across -workers cores; output is byte-identical for any
// worker count at a fixed seed. E17 (fault injection), E18
// (management-plane scale-out), E19 (inventory scale ladder), and E20
// (reconciliation interference) are opt-in via -only, -faults, -shards,
// -scale, or -reconcile and never change the default artifact.
//
//	mcpbench                 # full-scale horizons (minutes of wall time)
//	mcpbench -quick          # CI-scale horizons (seconds)
//	mcpbench -seed 7         # different random universe
//	mcpbench -only E6        # one experiment (E1..E22)
//	mcpbench -only E22       # serving-surface load grid (wall-clock, see internal/api)
//	mcpbench -workers 1      # serial execution (same output, more wall time)
//	mcpbench -progress       # completion ticks on stderr
//	mcpbench -metrics        # instrumented probe at the E6 crossover point
//	mcpbench -faults         # E17 goodput-under-faults, default rate grid
//	mcpbench -fault-rate 0.3 # E17 sweeping rates {0, 0.075, 0.15, 0.3}
//	mcpbench -shards 8       # E18 scale-out, sweeping shards {1, 2, 4, 8}
//	mcpbench -scale 1000000  # E19 ladder, inventories {1e3, 1e4, 1e5, 1e6}
//	mcpbench -reconcile      # E20 reconciliation interference grid
//	mcpbench -reconcile-interval 60 -reconcile-depth 4   # E20, custom grid
//
// Performance instrumentation (reproducible-profiling hooks):
//
//	mcpbench -quick -cpuprofile cpu.pprof   # CPU profile of the run
//	mcpbench -quick -memprofile mem.pprof   # heap profile at exit
//	mcpbench -bench-inventory BENCH_inventory.json # placement-cost ladder
//
// All stdout writes are buffered and the final flush is checked, so a
// full disk or closed pipe exits non-zero instead of silently truncating
// an artifact.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
)

func main() {
	// E22 (the serving-surface load grid) lives above core in the import
	// graph, so it registers itself with the experiment registry here.
	api.RegisterE22()
	seed := flag.Int64("seed", 1, "master random seed")
	quick := flag.Bool("quick", false, "run shortened horizons")
	only := flag.String("only", "", "run a single experiment (E1..E22)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print per-experiment completion to stderr")
	showMetrics := flag.Bool("metrics", false, "run an instrumented closed-loop probe at the E6 crossover and print per-layer metrics")
	metricsOut := flag.String("metrics-out", "", "write the probe's metrics snapshot to this file (.json, .csv, or ASCII)")
	withFaults := flag.Bool("faults", false, "run E17: goodput and latency under injected control-plane faults")
	faultRate := flag.Float64("fault-rate", 0, "highest injected fault rate for E17's sweep grid (0 = default grid; implies -faults)")
	shards := flag.Int("shards", 0, "run E18: management-plane scale-out, sweeping shard counts up to this power of two (0 = off)")
	scaleTo := flag.Int("scale", 0, "run E19: inventory scale ladder, sweeping prepopulated-VM counts in powers of ten up to this size (0 = off)")
	withReconcile := flag.Bool("reconcile", false, "run E20: foreground goodput under the always-on reconciliation plane")
	recInterval := flag.Float64("reconcile-interval", 0, "finest resync interval for E20's sweep grid in seconds (0 = default grid; implies -reconcile)")
	recDepth := flag.Int("reconcile-depth", 0, "reconciliation worker depth for E20 (0 = default grid; implies -reconcile)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	benchInvOut := flag.String("bench-inventory", "", "run the inventory placement-cost ladder and write BENCH_inventory-style JSON to this file instead of the experiment suite (rungs follow -scale, default up to 1e6)")
	flag.Parse()
	reconcileOn := *withReconcile || *recInterval > 0 || *recDepth > 0

	// Reject inconsistent flag values up front with a clear message and
	// a non-zero exit instead of clamping or panicking mid-suite.
	if *faultRate < 0 || *faultRate > 1 {
		fatal(fmt.Errorf("-fault-rate must be in [0,1], got %g", *faultRate))
	}
	if *shards < 0 {
		fatal(fmt.Errorf("-shards must be >= 0, got %d", *shards))
	}
	if err := validateScaleFlag(*scaleTo, *benchInvOut); err != nil {
		fatal(err)
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	}
	if err := validateReconcileFlags(*recInterval, *recDepth); err != nil {
		fatal(err)
	}
	if *shards > 0 && (*withFaults || *faultRate > 0) {
		fatal(fmt.Errorf("-shards (E18) and -faults (E17) are separate benches; pick one, or use -only"))
	}
	if reconcileOn && (*shards > 0 || *withFaults || *faultRate > 0) {
		fatal(fmt.Errorf("-reconcile (E20) is a separate bench from -shards (E18) and -faults (E17); pick one, or use -only"))
	}
	if *scaleTo > 0 && *benchInvOut == "" && (*shards > 0 || *withFaults || *faultRate > 0 || reconcileOn) {
		fatal(fmt.Errorf("-scale (E19) is a separate bench from -shards (E18), -faults (E17), and -reconcile (E20); pick one, or use -only"))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("close %s: %w", *cpuProfile, err))
			}
		}()
	}

	// Everything destined for stdout goes through one buffered writer
	// whose errors are sticky; the checked Flush below is what turns a
	// write failure anywhere in the run into a non-zero exit.
	out := bufio.NewWriter(os.Stdout)
	err := run(out, options{
		seed: *seed, quick: *quick, only: *only, workers: *workers,
		progress: *progress, showMetrics: *showMetrics, metricsOut: *metricsOut,
		withFaults: *withFaults, faultRate: *faultRate, shards: *shards,
		scaleTo: *scaleTo, reconcile: reconcileOn, recIntervalS: *recInterval, recDepth: *recDepth,
		benchInvOut: *benchInvOut,
	})
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		fatal(err)
	}
}

type options struct {
	seed        int64
	quick       bool
	only        string
	workers     int
	progress    bool
	showMetrics bool
	metricsOut  string
	withFaults  bool
	faultRate   float64
	shards      int
	scaleTo     int

	reconcile    bool
	recIntervalS float64
	recDepth     int

	benchInvOut string
}

// run dispatches to the selected bench, writing every artifact to w.
func run(w io.Writer, o options) error {
	switch {
	case o.benchInvOut != "":
		max := o.scaleTo
		if max == 0 {
			max = 1000000
		}
		return benchInventory(w, o.benchInvOut, max)
	case o.scaleTo > 0:
		return scaleBench(w, o.seed, o.quick, o.workers, o.scaleTo)
	case o.shards > 0:
		return shardsBench(w, o.seed, o.quick, o.workers, o.shards)
	case o.reconcile:
		return reconcileBench(w, o.seed, o.quick, o.workers, o.recIntervalS, o.recDepth)
	case o.withFaults || o.faultRate > 0:
		return faultsBench(w, o.seed, o.quick, o.workers, o.faultRate)
	case o.showMetrics || o.metricsOut != "":
		return metricsProbe(w, o.seed, o.quick, o.metricsOut)
	case o.only != "":
		res, err := core.RunExperiment(o.only, o.seed, o.quick, o.workers)
		if err != nil {
			return err
		}
		return res.Render(w)
	}
	opts := core.RunAllOptions{Workers: o.workers}
	if o.progress {
		opts.Progress = func(done, total int, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "mcpbench: %d/%d experiments done (%.1fs)\n",
				done, total, elapsed.Seconds())
		}
	}
	return core.RunAllWith(w, o.seed, o.quick, opts)
}

// writeHeapProfile forces a GC so the profile reflects live objects, then
// writes the heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	return err
}

// shardsBench runs E18 — closed-loop provisioning throughput, p99
// latency, and DB utilization versus management-shard count under
// shared and per-shard database modes, plus the cross-shard
// coordination leg. max bounds the grid: shard counts are the powers of
// two up to max (so -shards 8 sweeps {1, 2, 4, 8}).
func shardsBench(w io.Writer, seed int64, quick bool, workers, max int) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	var counts []int
	for n := 1; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	res, err := core.RunE18(core.E18Params{
		Seed: seed, ShardCounts: counts, HorizonS: 1800 * scale, Workers: workers,
	})
	if err != nil {
		return err
	}
	return res.Render(w)
}

// scaleBench runs E19 — closed-loop provisioning throughput, p99
// latency, and DB utilization versus prepopulated-inventory size under
// the default and group-commit database modes. max bounds the ladder:
// rungs are the powers of ten from 1e3 up to max, plus max itself when
// it is not a power of ten (so -scale 1000000 climbs {1e3, 1e4, 1e5,
// 1e6}).
func scaleBench(w io.Writer, seed int64, quick bool, workers, max int) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	res, err := core.RunE19(core.E19Params{
		Seed: seed, Sizes: ladder(max), HorizonS: 1800 * scale, Workers: workers,
	})
	if err != nil {
		return err
	}
	return res.Render(w)
}

// validateScaleFlag mirrors the -shards convention. -scale shapes either
// the E19 ladder or, combined with -bench-inventory, the wall-clock
// bench ladder; alone it must be a plausible inventory size.
func validateScaleFlag(scaleTo int, benchInvOut string) error {
	if scaleTo < 0 {
		return fmt.Errorf("-scale must be >= 0, got %d", scaleTo)
	}
	if scaleTo > 0 && scaleTo < 1000 && benchInvOut == "" {
		return fmt.Errorf("-scale below the smallest ladder rung (1000), got %d", scaleTo)
	}
	return nil
}

// reconcileBench runs E20 — foreground goodput, tail latency, and DB
// utilization while the reconciliation plane's controllers compete for
// the same management servers, plus the drift-storm and
// thundering-rebalance scenario legs. intervalS > 0 replaces the default
// resync-interval grid with {4i, 2i, i}; depth > 0 pins the worker-depth
// grid to that single value.
func reconcileBench(w io.Writer, seed int64, quick bool, workers int, intervalS float64, depth int) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	p := core.E20Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers}
	if intervalS > 0 {
		p.IntervalsS = []float64{4 * intervalS, 2 * intervalS, intervalS}
	}
	if depth > 0 {
		p.Depths = []int{depth}
	}
	res, err := core.RunE20(p)
	if err != nil {
		return err
	}
	return res.Render(w)
}

// validateReconcileFlags mirrors the -shards convention: out-of-range
// values exit non-zero with a clear message. Zero means "use the default
// grid", so only negatives are invalid here.
func validateReconcileFlags(intervalS float64, depth int) error {
	if intervalS < 0 {
		return fmt.Errorf("-reconcile-interval must be >= 0, got %g", intervalS)
	}
	if depth < 0 {
		return fmt.Errorf("-reconcile-depth must be >= 0, got %d", depth)
	}
	return nil
}

// faultsBench runs E17 — closed-loop deploy goodput, tail latency, and
// retry amplification versus injected fault rate, plus an HA restart
// storm against the same faulty control plane. rate > 0 replaces the
// default grid with {0, rate/4, rate/2, rate}.
func faultsBench(w io.Writer, seed int64, quick bool, workers int, rate float64) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	p := core.E17Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers}
	if rate > 0 {
		p.FaultRates = []float64{0, rate / 4, rate / 2, rate}
	}
	res, err := core.RunE17(p)
	if err != nil {
		return err
	}
	return res.Render(w)
}

// metricsProbe reruns the linked-clone closed loop at the concurrency
// where E6's throughput curve flattens (64 workers at default scale) with
// the per-layer metrics registry enabled, and prints which resource is
// saturating there. Metrics are pull-based, so the probe's numbers match
// an uninstrumented run of the same configuration exactly.
func metricsProbe(w io.Writer, seed int64, quick bool, outPath string) error {
	cfg := core.DefaultConfig(seed)
	cfg.Director.FastProvisioning = true
	cfg.Director.RebalanceThreshold = 0 // isolate provisioning, as E6 does
	cfg.Metrics = true
	clients, horizon := 64, 30*60.0
	if quick {
		horizon = 5 * 60.0
	}
	warmup := horizon / 10
	res, err := core.RunClosedLoop(cfg, clients, horizon, warmup)
	if err != nil {
		return err
	}
	return probeReport(w, res, clients, horizon, outPath)
}

// probeReport renders the probe's summary, metrics tables, and optional
// snapshot file. Every write error is propagated so a broken pipe or
// full disk exits non-zero.
func probeReport(w io.Writer, res core.ClosedLoopResult, clients int, horizon float64, outPath string) error {
	if _, err := fmt.Fprintf(w, "metrics probe: linked clones, %d closed-loop workers, %.0f min horizon\n", clients, horizon/60); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "deploys/hour %.1f  mean latency %.2fs  p95 %.2fs  errors %d\n\n",
		res.DeploysPerHour, res.MeanLatencyS, res.P95LatencyS, res.Errors); err != nil {
		return err
	}
	if err := res.Metrics.WriteASCII(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := report.BottleneckTable(res.Metrics, 10).Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nsaturating resource: %s\n", report.Bottleneck(res.Metrics)); err != nil {
		return err
	}
	if outPath != "" {
		return res.Metrics.WriteFile(outPath)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpbench:", err)
	os.Exit(1)
}
