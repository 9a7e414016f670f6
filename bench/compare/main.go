// Command compare judges two benchmark sets against each other, in place
// of benchstat, which this repository cannot download:
//
//	cd bench && go run ./compare baseline.json ../.bench_build/set.json
//
// The first set is the parent (base), the second the change. For every
// workload and end-to-end metric it prints both medians, their
// quartiles and sample counts, and a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: either side's spread (inter-quartile range over the
//     median) is wider than the bound, and the change does not read
//     better on every run;
//   - gain: the change wins at least nine of every ten pairs (ties count
//     for neither) and its median moved by more than the parent's
//     inter-quartile range;
//   - same: none of these.
//
// It also flags a digest that differs between the sets for one seed and
// any rise in a workload's failure share. It exits 1 on a regression or
// a flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cloudmcp/bench/ledger"
)

func main() {
	spec := flag.String("spec", "", "BENCHMARK.json (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] base.json new.json")
		os.Exit(2)
	}
	ok, err := run(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run compares the two set files and reports whether they pass.
func run(w io.Writer, specPath, basePath, newPath string) (bool, error) {
	if specPath == "" {
		specPath = "BENCHMARK.json"
		if _, err := os.Stat(specPath); err != nil {
			specPath = "../BENCHMARK.json"
		}
	}
	spec, err := ledger.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := ledger.ReadSet(basePath)
	if err != nil {
		return false, err
	}
	next, err := ledger.ReadSet(newPath)
	if err != nil {
		return false, err
	}
	return compare(w, spec, base, next), nil
}

// compare writes the verdict table and the flags, and reports whether
// the change passes: no regression and no flag.
func compare(w io.Writer, spec *ledger.Spec, base, next []ledger.Run) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-14s %29s %29s %8s  %s\n", "workload", "metric", "base median [q1 q3] n", "new median [q1 q3] n", "delta", "verdict")
	for _, wl := range spec.Workloads {
		a, b := untraced(base, wl.Name), untraced(next, wl.Name)
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-14s (missing: %d base runs, %d new runs)\n", wl.Name, len(a), len(b))
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			sa, sb := ledger.Summarize(va), ledger.Summarize(vb)
			v := verdict(m, va, vb)
			if v == "regression" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-14s %29s %29s %+7.1f%%  %s\n", wl.Name, m.Name, cell(sa), cell(sb), 100*(sb.Median-sa.Median)/math.Abs(sa.Median), v)
		}
		for _, f := range flags(a, b) {
			fmt.Fprintf(w, "%-14s FLAG: %s\n", wl.Name, f)
			ok = false
		}
	}
	return ok
}

func untraced(runs []ledger.Run, workload string) []ledger.Run {
	var out []ledger.Run
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []ledger.Run, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Result.Metrics[metric].Value)
	}
	return out
}

func cell(s ledger.Summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// verdict judges one metric: base and change are the runs' values in
// file order, paired by position.
func verdict(m ledger.Metric, base, change []float64) string {
	sign := 1.0 // +1 when higher is better
	if m.Better == "lower" {
		sign = -1
	}
	sa, sb := ledger.Summarize(base), ledger.Summarize(change)
	shift := sign * (sb.Median - sa.Median) // > 0: the change is better
	if shift < -m.Bound*math.Abs(sa.Median) {
		return "regression"
	}
	if sa.Spread() > m.Bound || sb.Spread() > m.Bound {
		if allBetter(sign, base, change) {
			return "gain"
		}
		return "unresolved"
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && shift > sa.Q3-sa.Q1 {
		return "gain"
	}
	return "same"
}

// allBetter reports whether every change run reads better than every
// base run.
func allBetter(sign float64, base, change []float64) bool {
	for _, b := range change {
		for _, a := range base {
			if sign*(b-a) <= 0 {
				return false
			}
		}
	}
	return true
}

// flags lists what makes the change fail whatever its speed: a run that
// failed its own checks, a digest that differs from the base's for the
// same seed, or a higher failure share.
func flags(base, change []ledger.Run) []string {
	var out []string
	digests := map[int64]string{}
	for _, r := range base {
		digests[r.Seed] = r.Digest
	}
	for _, r := range change {
		if !r.Result.Correct || r.Result.Failed > 0 {
			out = append(out, fmt.Sprintf("seed %d: run failed its checks (%d of %d failed)", r.Seed, r.Result.Failed, r.Result.Attempted))
		}
		if d, ok := digests[r.Seed]; ok && d != r.Digest {
			out = append(out, fmt.Sprintf("seed %d: digest %s, base %s", r.Seed, r.Digest, d))
			delete(digests, r.Seed) // one report per seed
		}
	}
	if fa, fb := failShare(base), failShare(change); fb > fa {
		out = append(out, fmt.Sprintf("failure share rose from %.6g to %.6g", fa, fb))
	}
	return out
}

func failShare(runs []ledger.Run) float64 {
	var ops, failed int64
	for _, r := range runs {
		ops += r.Ops
		failed += r.OpsFailed
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}
