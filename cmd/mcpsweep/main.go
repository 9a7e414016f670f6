// Command mcpsweep runs an arbitrary what-if parameter grid on the grid
// engine (core.Grid) every experiment sweep runs on. It loads a base
// configuration through the shared scenario surface (-config file.json,
// -seed, repeatable -set path=value; the defaults otherwise), varies one
// or more scenario fields over a grid, runs the closed-loop provisioning
// workload at every grid point in parallel through internal/sweep, and
// emits one result row per point as an ASCII table or CSV. Output is
// byte-identical for any -workers value at a fixed seed.
//
//	mcpsweep -vary director.cells=1,2,4,8 -vary concurrency=16,64
//	mcpsweep -config scenarios/paper-era.json -vary mgmt.dbConns=1,2,4 -format csv
//	mcpsweep -vary mgmt.granularity=coarse,host,entity -horizon 1200
//	mcpsweep -policy default,binpack,spread -vary topology.hosts=16,64
//	mcpsweep -set plane.shards=4 -vary mgmt.dbConns=1,4
//	mcpsweep -vary plane.shards=1,2,4 -vary plane.db=shared,per-shard -concurrency 192
//
// A -vary dimension is a scenario path — the -set syntax; mcpsim
// -dump-config lists every field — with comma-separated values, each
// parsed like a -set value. The one dimension outside the scenario is
// concurrency, the number of closed-loop deploy clients. Every grid
// point's configuration is loaded and built before the first point runs,
// so a bad value fails, naming its path, before any simulation.
//
// -policy a,b,c races whole policy sets (see internal/policy) as the
// slowest-varying grid dimension and appends a tournament ranking table
// ordered by mean normalized deploys/hour; rankings are byte-identical
// for any -workers value.
//
// Grid order is row-major over the -vary flags in command-line order
// (the first flag varies slowest). By default every point runs the same
// master seed so configurations are compared under identical workload
// randomness; -point-seeds gives each point its own seed derived from
// the master seed and point index instead.
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// concurrency names the grid dimension that is not a scenario path.
const concurrency = "concurrency"

// varyFlag accumulates repeated -vary flags in command-line order.
type varyFlag []core.Dim

func (v *varyFlag) String() string { return "" }

func (v *varyFlag) Set(s string) error {
	path, vals, ok := strings.Cut(s, "=")
	if !ok || path == "" || vals == "" {
		return fmt.Errorf("want path=v1,v2,... got %q", s)
	}
	for _, prev := range *v {
		if prev.Name == path {
			return fmt.Errorf("%s varied twice; give all its values in one -vary", path)
		}
	}
	values := strings.Split(vals, ",")
	if path != concurrency {
		*v = append(*v, core.Vary(path, values...))
		return nil
	}
	d := core.Dim{Name: path}
	for _, val := range values {
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return fmt.Errorf("%s=%q: want a positive integer", path, val)
		}
		d.Levels = append(d.Levels, core.Level{Label: val, Clients: n})
	}
	*v = append(*v, d)
	return nil
}

// options is one parsed command line.
type options struct {
	grid     core.Grid
	rank     bool // -policy: grid.Dims[0] is the tournament's policy dimension
	workers  int
	format   string
	progress bool
	load     core.Loader
}

// parseArgs binds mcpsweep's flags and the shared configuration flags on
// fs and parses args.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	var dims varyFlag
	fs.Var(&dims, "vary", "path=v1,v2,... grid dimension over a scenario path (see mcpsim -dump-config) or concurrency (repeatable)")
	policyList := fs.String("policy", "",
		"comma-separated policy sets to race as a tournament (known: "+strings.Join(policy.Names(), ", ")+")")
	fs.IntVar(&o.grid.Clients, "concurrency", 32, "closed-loop deploy clients (unless varied)")
	fs.Float64Var(&o.grid.HorizonS, "horizon", 600, "simulated seconds per grid point")
	fs.Float64Var(&o.grid.WarmupS, "warmup", 0, "warmup seconds excluded from measurement (0 = horizon/10)")
	fs.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	fs.StringVar(&o.format, "format", "ascii", "output format: ascii or csv")
	fs.BoolVar(&o.grid.PointSeeds, "point-seeds", false, "derive an independent seed per grid point instead of sharing the master seed")
	fs.BoolVar(&o.progress, "progress", false, "print per-point completion to stderr")
	o.load = core.BindConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	// -policy a,b,c is sugar for a slowest-varying policy dimension plus
	// a ranking table over the rest of the grid.
	if *policyList != "" {
		for _, prev := range dims {
			if prev.Name == "policy" {
				return o, fmt.Errorf("use either -policy or -vary policy=..., not both")
			}
		}
		o.rank = true
		dims = append(varyFlag{core.Vary("policy", strings.Split(*policyList, ",")...)}, dims...)
	}
	o.grid.Dims = dims
	g := &o.grid
	switch {
	case len(dims) == 0:
		return o, fmt.Errorf("nothing to sweep: pass at least one -vary path=v1,v2,...")
	case o.format != "ascii" && o.format != "csv":
		return o, fmt.Errorf("unknown format %q (want ascii or csv)", o.format)
	case g.Clients <= 0:
		return o, fmt.Errorf("-concurrency %d: want a positive client count", g.Clients)
	case !(g.HorizonS > 0) || math.IsInf(g.HorizonS, 1):
		return o, fmt.Errorf("-horizon %g: want a positive, finite horizon", g.HorizonS)
	case !(g.WarmupS >= 0):
		return o, fmt.Errorf("-warmup %g: want a non-negative warmup", g.WarmupS)
	}
	if g.WarmupS == 0 {
		g.WarmupS = g.HorizonS / 10
	}
	if g.WarmupS >= g.HorizonS {
		return o, fmt.Errorf("warmup %.0fs must be below the horizon %.0fs", g.WarmupS, g.HorizonS)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	base, err := o.load()
	if err != nil {
		fatal(err)
	}
	opts := sweep.Options{MasterSeed: base.Seed, Workers: o.workers}
	if o.progress {
		opts.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "mcpsweep: %d/%d points done (%.1fs)\n",
				p.Done, p.Total, p.Elapsed.Seconds())
		}
	}
	start := time.Now()
	rows, err := o.grid.Run(o.load, opts)
	if err != nil {
		fatal(err)
	}

	headers := make([]string, 0, len(o.grid.Dims)+4)
	for _, d := range o.grid.Dims {
		headers = append(headers, d.Name)
	}
	headers = append(headers, "deploys/h", "mean lat s", "p95 lat s", "errors")
	title := fmt.Sprintf("mcpsweep: %d-point grid, %.0fs horizon, seed %d",
		len(rows), o.grid.HorizonS, base.Seed)
	// Buffer stdout and check the flush: a full disk or closed pipe must
	// exit non-zero, not silently truncate the grid.
	out := bufio.NewWriter(os.Stdout)
	err = renderRows(out, o.format, title, headers, rows)
	if err == nil && o.rank && o.format == "ascii" {
		// Goodput is normalized against the best policy at each
		// rest-of-grid point, then averaged.
		rt := report.PolicyTable(
			"policy tournament: ranking by mean normalized deploys/h", o.grid.RankPolicies(rows))
		if rt != nil {
			fmt.Fprintln(out)
			err = rt.Render(out)
		}
	}
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err != nil {
		fatal(err)
	}
	if o.progress {
		fmt.Fprintf(os.Stderr, "mcpsweep: %d points in %.1fs\n", len(rows), time.Since(start).Seconds())
	}
}

// renderRows writes the result grid to w as csv or an ascii table,
// propagating every write error.
func renderRows(w io.Writer, format, title string, headers []string, rows []core.GridRow) error {
	if format == "csv" {
		cw := csv.NewWriter(w)
		if err := cw.Write(headers); err != nil {
			return err
		}
		for _, r := range rows {
			res := r.Result
			rec := append([]string{}, r.Labels...)
			rec = append(rec,
				strconv.FormatFloat(res.DeploysPerHour, 'g', -1, 64),
				csvLat(res, res.MeanLatencyS),
				csvLat(res, res.P95LatencyS),
				strconv.Itoa(res.Errors))
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	t := report.NewTable(title, headers...)
	for _, r := range rows {
		res := r.Result
		cells := make([]any, 0, len(headers))
		for _, v := range r.Labels {
			cells = append(cells, v)
		}
		cells = append(cells, res.DeploysPerHour, tableLat(res, res.MeanLatencyS),
			tableLat(res, res.P95LatencyS), res.Errors)
		t.AddRow(cells...)
	}
	return t.Render(w)
}

// A grid point that completed zero deploys has no latency sample; render
// its latency columns as "n/a" rather than a misleading 0.
func tableLat(res core.ClosedLoopResult, v float64) float64 {
	if res.Deploys == 0 {
		return math.NaN() // report.FormatFloat renders NaN as "n/a"
	}
	return v
}

func csvLat(res core.ClosedLoopResult, v float64) string {
	if res.Deploys == 0 {
		return "n/a"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpsweep:", err)
	os.Exit(1)
}
