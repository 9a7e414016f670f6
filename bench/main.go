// Command bench is the repository's benchmark: five workloads run
// against the public APIs of core, api and the layer packages, every
// end-to-end metric printed by name and unit, the simulated output
// checked, and a traced run that attributes host CPU time to each layer.
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh --workload deploy-loop --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --set 5 --out .bench_build/set.json  # every workload, round-robin
//
// A run repeats the workload, each repetition in a fresh child process,
// until --seconds have passed, and prints one JSON object as its last
// line of output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. See bench/README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"cloudmcp/bench/layers"
	"cloudmcp/bench/ledger"
)

// pinnedJSON holds the seed-1 digest of every deterministic workload.
// A change that only speeds up the simulator must reproduce them.
//
//go:embed digests.json
var pinnedJSON []byte

// minReps is the fewest repetitions a run makes, however long they take:
// one per member of the seed family.
const minReps = seedFamily

// buildDir holds per-layer reports of single runs (run.sh's build
// directory).
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "how long a run measures (default: run_seconds of the spec)")
		traceArg = flag.Int("trace", 0, "1: add the traced repetition and the seam loops, and report the per-layer metrics")
		set      = flag.Int("set", 0, "run a set: every workload this many times round-robin, then each once traced")
		out      = flag.String("out", "", "set file to write (with -set)")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark spec")
		quick    = flag.Bool("quick", false, "small inputs, for smoke tests")
		child    = flag.String("child", "", "internal: run one repetition here and report it on stdout")
		traced   = flag.Bool("traced", false, "internal: with -child, profile the repetition")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child, *seed, *quick, *traced); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := ledger.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if err := checkSpec(spec); err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *set > 0:
		if *out == "" {
			fatal(errors.New("-set needs -out"))
		}
		if err := runSet(spec, *set, *seed, *seconds, *quick, *out); err != nil {
			fatal(err)
		}
	case *workload != "":
		if *traceArg != 0 && *traceArg != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceArg))
		}
		run, err := runWorkload(spec, *workload, *seed, *seconds, *traceArg == 1, *quick, buildDir)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(run.Result); err != nil {
			fatal(err)
		}
		if !run.Result.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// checkSpec verifies that BENCHMARK.json names exactly this program's
// workloads and end-to-end metrics.
func checkSpec(spec *ledger.Spec) error {
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		return fmt.Errorf("spec workloads %v, want %v", names, workloadNames)
	}
	names = names[:0]
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, endToEndNames) {
		return fmt.Errorf("spec end_to_end %v, want %v", names, endToEndNames)
	}
	return nil
}

// endToEndNames lists the end-to-end metrics in spec order.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "lat_ms_p50", "lat_ms_p99", "cpu_us_per_op", "allocs_per_op", "heap_mib",
}

// runSet runs every workload rounds times round-robin, then each once
// traced (writing its layers file next to out), and writes the set.
func runSet(spec *ledger.Spec, rounds int, seed int64, seconds float64, quick bool, out string) error {
	var runs []ledger.Run
	do := func(name string, traced bool) error {
		run, err := runWorkload(spec, name, seed, seconds, traced, quick, filepath.Dir(out))
		if err != nil {
			return err
		}
		if !run.Result.Correct {
			return fmt.Errorf("%s: incorrect output", name)
		}
		runs = append(runs, run)
		return nil
	}
	for i := 0; i < rounds; i++ {
		for _, name := range workloadNames {
			if err := do(name, false); err != nil {
				return err
			}
		}
	}
	for _, name := range workloadNames {
		if err := do(name, true); err != nil {
			return err
		}
	}
	return ledger.WriteSet(out, runs)
}

// runWorkload makes one benchmark run: repetitions until seconds have
// passed, their checks and end-to-end metrics, and with traced the
// per-layer metrics in their place.
func runWorkload(spec *ledger.Spec, name string, seed int64, seconds float64, traced, quick bool, layersDir string) (ledger.Run, error) {
	if !slices.Contains(workloadNames, name) {
		return ledger.Run{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	var reps []rep
	start := time.Now()
	for i := 0; ; i++ {
		r, err := childRep(name, repSeed(seed, i), quick, false)
		if err != nil {
			return ledger.Run{}, fmt.Errorf("%s: %w", name, err)
		}
		if r.Ops <= 0 || r.WallS <= 0 {
			return ledger.Run{}, fmt.Errorf("%s: repetition did no work", name)
		}
		reps = append(reps, r)
		// Stop before a further repetition would overrun the budget.
		elapsed := time.Since(start).Seconds()
		if len(reps) >= minReps && elapsed*float64(len(reps)+1)/float64(len(reps)) > seconds {
			break
		}
	}

	run := ledger.Run{Workload: name, Seed: seed, Trace: traced}
	if name != wServe {
		run.Digest = familyDigest(reps)
	}
	attempted, failed, problems := check(name, seed, quick, reps)
	series := map[string][]float64{}
	for _, r := range reps {
		ops := float64(r.Ops)
		series["setup_s"] = append(series["setup_s"], r.SetupS)
		series["ops_per_s"] = append(series["ops_per_s"], ops/r.WallS)
		series["lat_ms_p50"] = append(series["lat_ms_p50"], ledger.Percentile(r.LatMS, 50))
		series["lat_ms_p99"] = append(series["lat_ms_p99"], ledger.Percentile(r.LatMS, 99))
		series["cpu_us_per_op"] = append(series["cpu_us_per_op"], r.CPUS/ops*1e6)
		series["allocs_per_op"] = append(series["allocs_per_op"], float64(r.Allocs)/ops)
		series["heap_mib"] = append(series["heap_mib"], r.HeapMiB)
		run.Ops += r.Ops
		run.OpsFailed += r.OpsFailed
	}
	if n := len(reps[0].LatMS); !ledger.TailReportable(99, n) {
		fmt.Fprintf(os.Stderr, "bench: %s: %d latency samples a repetition support no p99; it is their top order statistic\n", name, n)
	}
	run.Spread = map[string]ledger.Summary{}
	values := map[string]float64{}
	for _, m := range spec.EndToEnd {
		run.Spread[m.Name] = ledger.Summarize(series[m.Name])
		values[m.Name] = bestDecile(series[m.Name], m.Better)
	}
	metricSet := spec.EndToEnd

	if traced {
		tr, err := childRep(name, repSeed(seed, 0), quick, true)
		if err != nil {
			return ledger.Run{}, fmt.Errorf("%s traced: %w", name, err)
		}
		if tr.Digest != reps[0].Digest {
			problems = append(problems, fmt.Sprintf("traced digest %s differs from untraced %s", tr.Digest, reps[0].Digest))
		}
		c, err := spawn(2, childArgs("seams", seed, quick, false)...)
		if err != nil {
			return ledger.Run{}, err
		}
		var seams map[string]float64
		if err := c.finish(&seams); err != nil {
			return ledger.Run{}, fmt.Errorf("seams: %w", err)
		}
		values = perLayer(tr, seams, run, series["cpu_us_per_op"])
		metricSet = spec.PerLayer
		if err := writeLayers(layersDir, name, seed, values, tr, reps); err != nil {
			return ledger.Run{}, err
		}
	}

	run.Result = ledger.Result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]ledger.Value{},
	}
	for _, m := range metricSet {
		run.Result.Metrics[m.Name] = ledger.Value{Value: values[m.Name], Unit: m.Unit}
		delete(values, m.Name)
	}
	if len(values) > 0 {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return ledger.Run{}, fmt.Errorf("%s: metrics missing from the spec: %v", name, extra)
	}
	report(run, metricSet, problems)
	return run, nil
}

// check verifies the repetitions' outputs. In batch workloads and the
// suite, every repetition must reproduce the digest of the first one that
// simulated its seed, and at seed 1 the family digest must be the pinned
// one; every repetition is one checked operation. For serve-paced every
// request is one: each must succeed, every instantiated vApp must be
// deleted and its delete resolve, and nothing may be left in flight.
func check(name string, seed int64, quick bool, reps []rep) (attempted, failed int64, problems []string) {
	if name == wServe {
		for i, r := range reps {
			attempted += r.Load.Requests
			failed += r.Load.Failed
			l := r.Load
			if l.Deleted != l.Instantiated || l.DeleteResolved != l.Deleted {
				problems = append(problems, fmt.Sprintf("rep %d: %d instantiated, %d deleted, %d deletes resolved",
					i, l.Instantiated, l.Deleted, l.DeleteResolved))
			}
			if n := r.Sim["frontend.inflight_end"]; n != 0 {
				problems = append(problems, fmt.Sprintf("rep %d: %g operations in flight after the load", i, n))
			}
		}
		return attempted, failed, problems
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return int64(len(reps)), int64(len(reps)), []string{"digests.json: " + err.Error()}
	}
	first := map[int64]string{}
	for i, r := range reps {
		s := repSeed(seed, i)
		want, ok := first[s]
		if !ok {
			first[s] = r.Digest
			continue
		}
		if r.Digest != want {
			failed++
			problems = append(problems, fmt.Sprintf("repetition %d (seed %d): digest %s, earlier %s", i, s, r.Digest, want))
		}
	}
	if p, ok := pinned[name]; ok && seed == 1 && !quick {
		if got := familyDigest(reps); got != p {
			failed = int64(len(reps))
			problems = append(problems, fmt.Sprintf("family digest %s, pinned %s", got, p))
		}
	}
	return int64(len(reps)), failed, problems
}

// bestDecile reduces a metric's repetitions to the run's value: the 10th
// percentile when lower is better, the 90th when higher is. The shared
// host this benchmark runs on switches between a fast and a slow state,
// about 1.6× apart, every fraction of a second to a few seconds, and the
// share of repetitions caught in the slow state drifts from run to run.
// A median over repetitions moves with that share; the best decile reads
// the program in the fast state as long as one repetition in ten sees it.
func bestDecile(xs []float64, better string) float64 {
	if better == "higher" {
		return ledger.Percentile(xs, 90)
	}
	return ledger.Percentile(xs, 10)
}

// seedFamily is how many simulation seeds a run cycles through:
// repetition i of a run at seed s simulates seed repSeed(s, i). A
// workload's cost depends on its seed — ops-mix's p99 and live heap
// differ by up to 20% between single seeds — so a run's values take in
// the whole family, and runs at different seeds compare. Repeats of a
// family member check that the simulation is deterministic.
const seedFamily = 8

// repSeed is the simulation seed of repetition i of a run at seed.
func repSeed(seed int64, i int) int64 {
	return seed*seedFamily + int64(i%seedFamily)
}

// familyDigest identifies a run's simulated output: the sha256 of the
// digests of its seed family's first repetitions, in order. reps holds at
// least seedFamily repetitions.
func familyDigest(reps []rep) string {
	h := sha256.New()
	for _, r := range reps[:seedFamily] {
		fmt.Fprintln(h, r.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// perLayer assembles the per-layer metrics of a traced run: the CPU
// shares, the seam timings, the simulated per-layer values, the failure
// share, and the tracing overhead on CPU per operation against the
// untraced median.
func perLayer(tr rep, seams map[string]float64, run ledger.Run, cpuPerOp []float64) map[string]float64 {
	v := map[string]float64{}
	for _, l := range layers.Names {
		v["cpu."+l] = tr.CPUShares[l]
	}
	for k, x := range seams {
		v[k] = x
	}
	for k, x := range tr.Sim {
		v[k] = x
	}
	if run.Ops > 0 {
		v["fail_frac"] = float64(run.OpsFailed) / float64(run.Ops)
	}
	if base := ledger.Summarize(cpuPerOp).Median; base > 0 && tr.Ops > 0 {
		v["trace_overhead_pct"] = (tr.CPUS/float64(tr.Ops)*1e6/base - 1) * 100
	}
	return v
}

// writeLayers writes layers.<workload>.json: the per-layer metrics plus
// what does not fit a flat metric — the serving latency breakdown and
// the metrics-registry snapshot of the traced repetition.
func writeLayers(dir, name string, seed int64, values map[string]float64, tr rep, reps []rep) error {
	doc := map[string]any{"workload": name, "seed": seed, "per_layer": values}
	if name == wServe {
		var all loadStats
		lag := 0.0
		for _, r := range reps {
			all.add(r.Load)
			lag = math.Max(lag, r.LagMS)
		}
		doc["serve"] = map[string]float64{
			"write_ms_p50":     ledger.Percentile(all.WriteMS, 50),
			"write_ms_p99":     ledger.Percentile(all.WriteMS, 99),
			"poll_ms_p99":      ledger.Percentile(all.PollMS, 99),
			"read_ms_p99":      ledger.Percentile(all.ReadMS, 99),
			"op_ms_p50":        ledger.Percentile(all.OpMS, 50),
			"op_ms_p99":        ledger.Percentile(all.OpMS, 99),
			"paced_lag_ms_max": lag,
			"writes":           float64(len(all.WriteMS)),
			"polls":            float64(len(all.PollMS)),
			"reads":            float64(len(all.ReadMS)),
		}
	}
	if len(tr.Registry) > 0 {
		doc["registry"] = tr.Registry
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers."+name+".json"), append(b, '\n'), 0o644)
}

// report prints a run's metrics, with their spread across repetitions,
// and any failed check to standard error.
func report(run ledger.Run, metricSet []ledger.Metric, problems []string) {
	w := os.Stderr
	fmt.Fprintf(w, "bench: %s seed %d: %d ops (%d failed), digest %s\n",
		run.Workload, run.Seed, run.Ops, run.OpsFailed, run.Digest)
	for _, m := range metricSet {
		v := run.Result.Metrics[m.Name]
		if s, ok := run.Spread[m.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s  [q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %d]\n",
				m.Name, v.Value, v.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}
