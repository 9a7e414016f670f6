package core

// The grid engine: an experiment's sweep described as data. mcpsweep
// builds its Grid from the command line; E5-E21 define theirs in Go,
// each with a per-point function (RunGrid) and a renderer, and run any
// storm leg beside it.

import (
	"fmt"
	"strings"

	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// A Level is one value of a grid dimension.
type Level struct {
	Label   string   // the level's name in rows and tables
	Sets    []string // path=value overrides the level applies
	Clients int      // closed-loop clients at this level; 0 keeps the grid's
}

// A Dim is one grid dimension: a name and its levels in order.
type Dim struct {
	Name   string
	Levels []Level
}

// Vary is the dimension over one scenario path that mcpsweep's -vary
// path=v1,v2,... builds: one level per value, labelled by its text and
// setting path=value.
func Vary[T any](path string, values ...T) Dim {
	d := Dim{Name: path}
	for _, v := range values {
		s := fmt.Sprint(v)
		d.Levels = append(d.Levels, Level{Label: s, Sets: []string{path + "=" + s}})
	}
	return d
}

// A Grid is a row-major product of dimensions (Dims[0] varies slowest),
// each point a Config its overrides load. Run drives RunClosedLoop at
// every point; RunGrid drives any per-point function.
type Grid struct {
	Base     []string // path=value overrides applied at every point, first
	Dims     []Dim
	Clients  int     // closed-loop deploy clients, unless a level sets them
	HorizonS float64 // simulated seconds per point
	WarmupS  float64 // seconds excluded from measurement

	// PointSeeds gives each point the seed sweep derives from the master
	// seed and the point index; otherwise every point keeps its loaded
	// seed, so points differ only in their overrides.
	PointSeeds bool
}

// A GridRow is one grid point: where it sits in the grid, what it runs,
// and after Run its closed-loop result.
type GridRow struct {
	Levels  []int    // the point's level index in each dimension
	Labels  []string // and that level's label
	Config  Config
	Clients int
	Result  ClosedLoopResult
}

// Points loads every point of the grid in row-major order and checks
// each point's config as New would, so a bad value fails, naming the
// point's path=value list, before any point simulates.
func (g Grid) Points(load Loader) ([]GridRow, error) {
	total := 1
	for _, d := range g.Dims {
		total *= len(d.Levels)
	}
	points := make([]GridRow, total)
	for i := range points {
		pt := GridRow{Levels: make([]int, len(g.Dims)), Labels: make([]string, len(g.Dims)), Clients: g.Clients}
		for j, index := len(g.Dims)-1, i; j >= 0; j-- {
			n := len(g.Dims[j].Levels)
			pt.Levels[j] = index % n
			index /= n
		}
		sets := append([]string(nil), g.Base...)
		for j, d := range g.Dims {
			l := d.Levels[pt.Levels[j]]
			pt.Labels[j] = l.Label
			sets = append(sets, l.Sets...)
			if l.Clients > 0 {
				pt.Clients = l.Clients
			}
		}
		cfg, err := load(sets...)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("grid point %s: %w", strings.Join(sets, " "), err)
		}
		pt.Config = cfg
		points[i] = pt
	}
	return points, nil
}

// axis is a dimension the per-point function reads rather than the
// loader: one level per value, labelled by its text and setting
// nothing. The function finds its value by the point's level index.
func axis[T any](name string, values ...T) Dim {
	d := Dim{Name: name}
	for _, v := range values {
		d.Levels = append(d.Levels, Level{Label: fmt.Sprint(v)})
	}
	return d
}

// RunGrid loads every point of g, then runs run at each through
// internal/sweep, returning the results in row-major order:
// byte-identical for any opts.Workers.
func RunGrid[T any](g Grid, load Loader, opts sweep.Options, run func(GridRow) (T, error)) ([]T, error) {
	points, err := g.Points(load)
	if err != nil {
		return nil, err
	}
	return sweep.Run(opts, len(points), func(sp sweep.Point) (T, error) {
		pt := points[sp.Index]
		if g.PointSeeds {
			pt.Config.Seed = sp.Seed
		}
		return run(pt)
	})
}

// Run is RunGrid with the closed loop at every point.
func (g Grid) Run(load Loader, opts sweep.Options) ([]GridRow, error) {
	return RunGrid(g, load, opts, func(pt GridRow) (GridRow, error) {
		var err error
		pt.Result, err = RunClosedLoop(pt.Config, pt.Clients, g.HorizonS, g.WarmupS)
		return pt, err
	})
}

// RankPolicies ranks a tournament grid through report.RankPolicies: the
// policy is dimension 0, and the remaining labels name the group a
// point's goodput is normalized in (so big and small configurations
// weigh equally).
func (g Grid) RankPolicies(rows []GridRow) []report.PolicyRow {
	var policies []string
	for _, l := range g.Dims[0].Levels {
		policies = append(policies, l.Label)
	}
	results := make([]report.PolicyResult, len(rows))
	for i, r := range rows {
		results[i] = report.PolicyResult{
			Policy: r.Labels[0], Group: strings.Join(r.Labels[1:], "\x00"),
			GoodPerHour: r.Result.DeploysPerHour, P99S: r.Result.P99LatencyS,
			Moves: r.Result.DRSMoves + r.Result.RebalanceMoves, Errors: r.Result.Errors,
		}
	}
	return report.RankPolicies(policies, results)
}
