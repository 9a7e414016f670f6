// Command mcpbench runs the default experiment suite (E1..E16: the
// paper's characterization, provisioning study and design implications,
// plus the operations experiments E13..E16) and prints every artifact.
// Experiments and their internal parameter sweeps run in parallel across
// -workers cores; output is byte-identical for any worker count at a
// fixed seed. E17 (fault injection), E18 (management-plane scale-out),
// E19 (inventory scale ladder), E20 (reconciliation interference), E21
// (policy tournament) and E22 (serving surface) are opt-in via -only and
// never change the default artifact. Every sweep of E5..E21 is a
// core.Grid, so a custom closed-loop grid over the axes of E6, E10, E11,
// E17, E18, E20 or E21 is an mcpsweep command line (the doc comment of
// core.Extensions gives E18's).
//
//	mcpbench                 # full-scale horizons (minutes of wall time)
//	mcpbench -quick          # CI-scale horizons (seconds)
//	mcpbench -seed 7         # different random universe
//	mcpbench -only E6        # one experiment (E1..E22)
//	mcpbench -only E17       # goodput under injected faults
//	mcpbench -only E22       # serving-surface load grid (wall-clock, see internal/api)
//	mcpbench -workers 1      # serial execution (same output, more wall time)
//	mcpbench -progress       # completion ticks on stderr
//	mcpbench -metrics        # instrumented probe at the E6 crossover point
//
// Performance instrumentation (reproducible-profiling hooks):
//
//	mcpbench -quick -cpuprofile cpu.pprof   # CPU profile of the run
//	mcpbench -quick -memprofile mem.pprof   # heap profile at exit
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
	seed := flag.Int64("seed", 1, "master random seed")
	quick := flag.Bool("quick", false, "run shortened horizons")
	only := flag.String("only", "", "run a single experiment (E1..E22)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print per-experiment completion to stderr")
	showMetrics := flag.Bool("metrics", false, "run an instrumented closed-loop probe at the E6 crossover and print per-layer metrics")
	metricsOut := flag.String("metrics-out", "", "write the probe's metrics snapshot to this file (.json, .csv, or ASCII)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
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
}

// run dispatches to the selected bench, writing every artifact to w.
func run(w io.Writer, o options) error {
	switch {
	case o.showMetrics || o.metricsOut != "":
		return metricsProbe(w, o.seed, o.quick, o.metricsOut)
	case o.only != "":
		e, err := lookup(o.only)
		if err != nil {
			return err
		}
		res, err := e.Exec(o.seed, o.quick, o.workers)
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

// experiments is every experiment -only can name, E1..E22: the default
// suite, core's extensions, and internal/api's E22.
func experiments() []core.Experiment {
	return append(append(core.Experiments(), core.Extensions()...), api.E22())
}

// lookup resolves an -only name.
func lookup(name string) (core.Experiment, error) {
	for _, e := range experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	return core.Experiment{}, fmt.Errorf("unknown experiment %q (want E1..E22)", name)
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
	if err := report.WriteMetrics(w, res.Metrics); err != nil {
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
		return report.WriteMetricsFile(outPath, res.Metrics)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpbench:", err)
	os.Exit(1)
}
