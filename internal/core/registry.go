package core

// The experiment registry: the tables of (name, full-scale horizon, run)
// that cmd/mcpbench, RunAllWith and anything else that wants "the suite"
// share.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cloudmcp/internal/sweep"
)

// Params configures one experiment run. Seed is the master seed,
// HorizonS the simulated seconds (each RunE<n> says per what) and
// Workers bounds the experiment's sweep pool (0 = GOMAXPROCS). An
// experiment ignores the fields it does not use; experiments without a
// sweep ignore Workers.
type Params struct {
	Seed     int64
	HorizonS float64
	Workers  int
	runs     *sync.Map // RunAllWith's simulations shared by key (see share); nil shares none
}

// share returns run's result, computed once per key in p.runs on the
// first requester's goroutine; later ones wait and read the same value
// and error. A key names all that determines a run but the table's seed.
func share[T any](p Params, key string, run func() (T, error)) (T, error) {
	if p.runs == nil {
		return run()
	}
	once, _ := p.runs.LoadOrStore(key, sync.OnceValues(func() (any, error) { return run() }))
	v, err := once.(func() (any, error))()
	return v.(T), err
}

// sweep returns what an experiment's sweep runs on: the loader over
// DefaultConfig(p.Seed), and the sweep engine's options with p.Seed as
// the master seed and p.Workers as the pool bound.
func (p Params) sweep() (Loader, sweep.Options) {
	return DefaultLoader(p.Seed), sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}
}

// Renderable is any experiment result that can write its artifact.
type Renderable interface{ Render(io.Writer) error }

// Experiment is one row of an experiment table. Run is a pure function
// of its Params; HorizonS is the full paper horizon it runs at, and
// quick (CI-scale) runs take a tenth of it. Quick, when set, is the
// smaller grid a quick run climbs instead of Run's.
type Experiment struct {
	Name     string
	HorizonS float64
	Run      func(Params) (Renderable, error)
	Quick    func(Params) (Renderable, error)
}

// Runner adapts a run function with a typed result to an Experiment's
// Run.
func Runner[R Renderable](run func(Params) (R, error)) func(Params) (Renderable, error) {
	return func(p Params) (Renderable, error) { return run(p) }
}

// Exec runs e at seed, at full scale or quick, with workers bounding
// its sweep pool.
func (e Experiment) Exec(seed int64, quick bool, workers int) (Renderable, error) {
	return e.exec(seed, quick, workers, nil)
}

// exec is Exec sharing simulations through runs.
func (e Experiment) exec(seed int64, quick bool, workers int, runs *sync.Map) (Renderable, error) {
	p, run := Params{Seed: seed, HorizonS: e.HorizonS, Workers: workers, runs: runs}, e.Run
	if quick {
		p.HorizonS *= 0.1
		if e.Quick != nil {
			run = e.Quick
		}
	}
	r, err := run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	return r, nil
}

// Experiments returns the full suite in E1..E16 render order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "E1", HorizonS: 2 * Day, Run: Runner(RunE1)},
		{Name: "E2", HorizonS: 2 * Day, Run: Runner(RunE2)},
		{Name: "E3", HorizonS: 2 * Day, Run: Runner(RunE3)},
		{Name: "E4", HorizonS: 12 * Hour, Run: Runner(RunE4)},
		{Name: "E5", Run: Runner(RunE5)},
		{Name: "E6", HorizonS: 1800, Run: Runner(RunE6)},
		{Name: "E7", HorizonS: Hour, Run: Runner(RunE7)},
		{Name: "E8", HorizonS: 2 * Hour, Run: Runner(RunE8)},
		{Name: "E9", HorizonS: Hour, Run: Runner(RunE9)},
		{Name: "E10", HorizonS: 1800, Run: Runner(RunE10)},
		{Name: "E11", HorizonS: 1800, Run: Runner(RunE11)},
		{Name: "E12", HorizonS: 1800, Run: Runner(RunE12)},
		{Name: "E13", HorizonS: 1800, Run: Runner(RunE13)},
		{Name: "E14", HorizonS: 1800, Run: Runner(RunE14)},
		{Name: "E15", HorizonS: 2 * Hour, Run: Runner(RunE15)},
		{Name: "E16", HorizonS: 1800, Run: Runner(RunE16)},
	}
}

// Extensions returns opt-in experiments that are not part of the
// default suite. E17 enables fault injection, E18 reshapes the
// management-plane topology, E19 scales the inventory itself, E20
// turns on the reconciliation plane, and E21 races policy sets; folding
// any of them into RunAllWith would grow the default artifact. mcpbench
// -only E17..E21 runs them at these fixed grids. Every sweep of E5..E21
// is a Grid, and those that run the closed loop at every point (E6,
// E10, E11, E17, E18, E20, E21) are mcpsweep command lines over their
// axes, e.g. E18's:
//
//	mcpsweep -vary plane.shards=1,2,4,8 -vary plane.db=shared,per-shard \
//	  -vary director.fastProvisioning=false,true -concurrency 192 -horizon 1800 \
//	  -set director.rebalanceThreshold=0 -set topology.datastoreMBps=4000 \
//	  -set director.maxChainLen=1048576
func Extensions() []Experiment {
	return []Experiment{
		{Name: "E17", HorizonS: 1800, Run: Runner(RunE17)},
		{Name: "E18", HorizonS: 1800, Run: Runner(RunE18)},
		{Name: "E19", HorizonS: 1800, Run: Runner(RunE19), Quick: Runner(e19Quick.run)},
		{Name: "E20", HorizonS: 1800, Run: Runner(RunE20)},
		{Name: "E21", HorizonS: 1800, Run: Runner(RunE21)},
	}
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

// RunAllWith runs every experiment ("quick" ≈ CI-speed scale 0.1, else
// full paper horizons) and renders each to w in E1..E16 order.
// Experiments execute concurrently across the sweep engine's pool;
// rendering waits for all of them, so output is byte-identical to a
// serial run. Each simulation that several experiments read runs once.
func RunAllWith(w io.Writer, seed int64, quick bool, opts RunAllOptions) error {
	return runAll(w, seed, quick, opts, new(sync.Map))
}

func runAll(w io.Writer, seed int64, quick bool, opts RunAllOptions, runs *sync.Map) error {
	steps := Experiments()
	var onProgress func(sweep.Progress)
	if opts.Progress != nil {
		onProgress = func(p sweep.Progress) { opts.Progress(p.Done, p.Total, p.Elapsed) }
	}
	results, err := sweep.Run(sweep.Options{MasterSeed: seed, Workers: opts.Workers, OnProgress: onProgress},
		len(steps), func(pt sweep.Point) (Renderable, error) {
			return steps[pt.Index].exec(seed, quick, opts.Workers, runs)
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
