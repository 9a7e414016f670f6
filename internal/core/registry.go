package core

// The experiment registry: one table of (name, default params) shared by
// cmd/mcpbench -only, RunAll, and anything else that wants "the suite".
// Before this existed the per-experiment default horizons were
// copy-pasted between mcpbench's runOne switch and RunAll's step list and
// had already drifted in the docs; now they live here once.

import (
	"fmt"
	"io"
	"time"

	"cloudmcp/internal/sweep"
)

// Renderable is any experiment result that can write its artifact.
type Renderable interface{ Render(io.Writer) error }

// Experiment is one named entry of the suite. Run is a pure function of
// (seed, scale): scale 1.0 is the full paper horizon, 0.1 the quick/CI
// horizon. workers bounds the experiment's internal sweep pool (0 =
// GOMAXPROCS); experiments without an internal sweep ignore it.
type Experiment struct {
	Name string
	Run  func(seed int64, scale float64, workers int) (Renderable, error)
}

// Experiments returns the full suite in E1..E16 render order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE1(E1Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E2", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE2(E2Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E3", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE3(E3Params{Seed: seed, HorizonS: 2 * Day * scale})
		}},
		{"E4", func(seed int64, scale float64, _ int) (Renderable, error) {
			return RunE4(E4Params{Seed: seed, HorizonS: 12 * Hour * scale})
		}},
		{"E5", func(seed int64, _ float64, workers int) (Renderable, error) {
			return RunE5(E5Params{Seed: seed, Workers: workers})
		}},
		swept("E6", 1800, RunE6),
		swept("E7", Hour, RunE7),
		swept("E8", 2*Hour, RunE8),
		swept("E9", Hour, RunE9),
		swept("E10", 1800, RunE10),
		swept("E11", 1800, RunE11),
		swept("E12", 1800, RunE12),
		swept("E13", 1800, RunE13),
		swept("E14", 1800, RunE14),
		swept("E15", 2*Hour, RunE15),
		swept("E16", 1800, RunE16),
	}
}

// Extensions returns opt-in experiments that are not part of the
// default suite. E17 enables fault injection, E18 reshapes the
// management-plane topology, E19 scales the inventory itself, E20
// turns on the reconciliation plane, and E21 races policy sets; folding
// any of them into RunAll would grow the default artifact. They run via
// RunExperiment (mcpbench -only E17/E18/E19/E20/E21) at these fixed
// grids. Every sweep of E5..E21 is a Grid, and those that run the closed
// loop at every point (E6, E10, E11, E17, E18, E20, E21) are mcpsweep
// command lines over their axes, e.g. E18's:
//
//	mcpsweep -vary plane.shards=1,2,4,8 -vary plane.db=shared,per-shard \
//	  -vary director.fastProvisioning=false,true -concurrency 192 -horizon 1800 \
//	  -set director.rebalanceThreshold=0 -set topology.datastoreMBps=4000 \
//	  -set director.maxChainLen=1048576
func Extensions() []Experiment {
	return []Experiment{
		swept("E17", 1800, RunE17),
		swept("E18", 1800, RunE18),
		{"E19", func(seed int64, scale float64, workers int) (Renderable, error) {
			d := e19
			if scale < 1 {
				// Quick/CI runs climb the two smallest rungs only.
				d.sizes = d.sizes[:2]
			}
			return d.run(E19Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
		}},
		swept("E20", 1800, RunE20),
		swept("E21", 1800, RunE21),
	}
}

// swept is the registry entry of an experiment whose params are Seed,
// HorizonS and Workers: horizonS at full scale, and the suite's worker
// bound as the experiment's sweep pool.
func swept[P ~struct {
	Seed     int64
	HorizonS float64
	Workers  int
}, R Renderable](name string, horizonS float64, run func(P) (R, error)) Experiment {
	return Experiment{name, func(seed int64, scale float64, workers int) (Renderable, error) {
		return run(P{Seed: seed, HorizonS: horizonS * scale, Workers: workers})
	}}
}

// registered holds extensions contributed from outside this package.
// Packages above core in the import graph (internal/api's E22) register
// here so RunExperiment can dispatch to them without core importing
// them — core cannot, without a cycle.
var registered []Experiment

// RegisterExtension adds an externally defined experiment to the
// registry. Call from an init function or before RunExperiment; later
// registrations with an existing name override the earlier entry.
func RegisterExtension(e Experiment) {
	for i := range registered {
		if registered[i].Name == e.Name {
			registered[i] = e
			return
		}
	}
	registered = append(registered, e)
}

// RunExperiment runs one experiment by name at its registry-default
// horizon.
func RunExperiment(name string, seed int64, quick bool, workers int) (Renderable, error) {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	all := append(Experiments(), Extensions()...)
	all = append(all, registered...)
	for _, e := range all {
		if e.Name == name {
			r, err := e.Run(seed, scale, workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want E1..E22, or a registered extension)", name)
}

// RunAllOptions tunes the parallel suite run.
type RunAllOptions struct {
	// Workers bounds both the across-experiment pool and each
	// experiment's internal sweep pool; 0 = GOMAXPROCS. Workers=1
	// reproduces a fully serial run — with output identical to any
	// other worker count.
	Workers int
	// Progress, when non-nil, is called after each experiment finishes.
	Progress func(done, total int, elapsed time.Duration)
}

// RunAll runs every experiment ("quick" ≈ CI-speed scale 0.1, else full
// paper horizons) and renders each to w in E1..E16 order. Experiments
// execute concurrently across the sweep engine's pool; rendering waits
// for all of them, so output is byte-identical to a serial run.
func RunAll(w io.Writer, seed int64, quick bool) error {
	return RunAllWith(w, seed, quick, RunAllOptions{})
}

// RunAllWith is RunAll with an explicit worker count and progress hook.
func RunAllWith(w io.Writer, seed int64, quick bool, opts RunAllOptions) error {
	scale := 1.0
	if quick {
		scale = 0.1
	}
	steps := Experiments()
	var onProgress func(sweep.Progress)
	if opts.Progress != nil {
		onProgress = func(p sweep.Progress) { opts.Progress(p.Done, p.Total, p.Elapsed) }
	}
	results, err := sweep.Run(sweep.Options{MasterSeed: seed, Workers: opts.Workers, OnProgress: onProgress},
		len(steps), func(pt sweep.Point) (Renderable, error) {
			s := steps[pt.Index]
			r, err := s.Run(seed, scale, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			return r, nil
		})
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
