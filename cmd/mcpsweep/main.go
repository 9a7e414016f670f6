// Command mcpsweep runs an arbitrary what-if parameter grid — the
// generalization of the hardcoded E6/E10/E11 sweeps. It loads a base
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

// dim is one -vary flag: a scenario path (or concurrency) and its values.
type dim struct {
	path   string
	values []string
}

// varyFlag accumulates repeated -vary flags in command-line order.
type varyFlag []dim

func (v *varyFlag) String() string {
	var parts []string
	for _, d := range *v {
		parts = append(parts, d.path+"="+strings.Join(d.values, ","))
	}
	return strings.Join(parts, " ")
}

func (v *varyFlag) Set(s string) error {
	path, vals, ok := strings.Cut(s, "=")
	if !ok || path == "" || vals == "" {
		return fmt.Errorf("want path=v1,v2,... got %q", s)
	}
	for _, prev := range *v {
		if prev.path == path {
			return fmt.Errorf("%s varied twice; give all its values in one -vary", path)
		}
	}
	values := strings.Split(vals, ",")
	if path == concurrency {
		for _, val := range values {
			if n, err := strconv.Atoi(val); err != nil || n <= 0 {
				return fmt.Errorf("%s=%q: want a positive integer", path, val)
			}
		}
	}
	*v = append(*v, dim{path: path, values: values})
	return nil
}

// options is one parsed command line.
type options struct {
	dims       varyFlag
	tournament []string // -policy sets; when set, dims[0] is their dimension
	clients    int
	horizon    float64
	warmup     float64
	workers    int
	format     string
	pointSeeds bool
	progress   bool
	load       func(overrides ...string) (core.Config, error)
}

// parseArgs binds mcpsweep's flags and the shared configuration flags on
// fs and parses args.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.Var(&o.dims, "vary", "path=v1,v2,... grid dimension over a scenario path (see mcpsim -dump-config) or concurrency (repeatable)")
	policyList := fs.String("policy", "",
		"comma-separated policy sets to race as a tournament (known: "+strings.Join(policy.Names(), ", ")+")")
	fs.IntVar(&o.clients, "concurrency", 32, "closed-loop deploy clients (unless varied)")
	fs.Float64Var(&o.horizon, "horizon", 600, "simulated seconds per grid point")
	fs.Float64Var(&o.warmup, "warmup", 0, "warmup seconds excluded from measurement (0 = horizon/10)")
	fs.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	fs.StringVar(&o.format, "format", "ascii", "output format: ascii or csv")
	fs.BoolVar(&o.pointSeeds, "point-seeds", false, "derive an independent seed per grid point instead of sharing the master seed")
	fs.BoolVar(&o.progress, "progress", false, "print per-point completion to stderr")
	o.load = core.BindConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	// -policy a,b,c is sugar for a slowest-varying policy dimension plus
	// a ranking table over the rest of the grid.
	if *policyList != "" {
		for _, prev := range o.dims {
			if prev.path == "policy" {
				return o, fmt.Errorf("use either -policy or -vary policy=..., not both")
			}
		}
		o.tournament = strings.Split(*policyList, ",")
		o.dims = append(varyFlag{{path: "policy", values: o.tournament}}, o.dims...)
	}
	if len(o.dims) == 0 {
		return o, fmt.Errorf("nothing to sweep: pass at least one -vary path=v1,v2,...")
	}
	if o.format != "ascii" && o.format != "csv" {
		return o, fmt.Errorf("unknown format %q (want ascii or csv)", o.format)
	}
	if o.warmup == 0 {
		o.warmup = o.horizon / 10
	}
	if o.warmup >= o.horizon {
		return o, fmt.Errorf("warmup %.0fs must be below the horizon %.0fs", o.warmup, o.horizon)
	}
	return o, nil
}

// point is one grid point: its value in every dimension, the Config
// loaded with those values, and its closed-loop client count.
type point struct {
	values  []string
	cfg     core.Config
	clients int
}

// buildGrid loads every point of the row-major grid (the first dimension
// varies slowest) and builds a cloud from each, so a bad value fails,
// naming the point's paths, before any point simulates.
func buildGrid(o options) ([]point, error) {
	total := 1
	for _, d := range o.dims {
		total *= len(d.values)
	}
	points := make([]point, total)
	for i := range points {
		pt := point{values: make([]string, len(o.dims)), clients: o.clients}
		for j, index := len(o.dims)-1, i; j >= 0; j-- {
			n := len(o.dims[j].values)
			pt.values[j] = o.dims[j].values[index%n]
			index /= n
		}
		var sets, labels []string
		for j, d := range o.dims {
			labels = append(labels, d.path+"="+pt.values[j])
			if d.path == concurrency {
				pt.clients, _ = strconv.Atoi(pt.values[j]) // checked by varyFlag.Set
				continue
			}
			sets = append(sets, labels[j])
		}
		cfg, err := o.load(sets...)
		if err == nil {
			_, err = core.New(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("grid point %s: %w", strings.Join(labels, " "), err)
		}
		pt.cfg = cfg
		points[i] = pt
	}
	return points, nil
}

// row is one grid point's rendered result.
type row struct {
	values []string // one per grid dimension
	res    core.ClosedLoopResult
}

// runGrid runs the closed loop at every point, in parallel, returning the
// rows in grid order.
func runGrid(o options, points []point, masterSeed int64) ([]row, error) {
	opts := sweep.Options{MasterSeed: masterSeed, Workers: o.workers}
	if o.progress {
		opts.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "mcpsweep: %d/%d points done (%.1fs)\n",
				p.Done, p.Total, p.Elapsed.Seconds())
		}
	}
	return sweep.Run(opts, len(points), func(sp sweep.Point) (row, error) {
		pt := points[sp.Index]
		cfg := pt.cfg
		if o.pointSeeds {
			cfg.Seed = sp.Seed
		}
		res, err := core.RunClosedLoop(cfg, pt.clients, o.horizon, o.warmup)
		return row{values: pt.values, res: res}, err
	})
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
	points, err := buildGrid(o)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	rows, err := runGrid(o, points, base.Seed)
	if err != nil {
		fatal(err)
	}

	headers := make([]string, 0, len(o.dims)+4)
	for _, d := range o.dims {
		headers = append(headers, d.path)
	}
	headers = append(headers, "deploys/h", "mean lat s", "p95 lat s", "errors")
	title := fmt.Sprintf("mcpsweep: %d-point grid, %.0fs horizon, seed %d",
		len(points), o.horizon, base.Seed)
	// Buffer stdout and check the flush: a full disk or closed pipe must
	// exit non-zero, not silently truncate the grid.
	out := bufio.NewWriter(os.Stdout)
	err = renderRows(out, o.format, title, headers, rows)
	if err == nil && len(o.tournament) > 0 && o.format == "ascii" {
		rt := report.PolicyTable(
			"policy tournament: ranking by mean normalized deploys/h", rankPolicies(o.tournament, rows))
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
		fmt.Fprintf(os.Stderr, "mcpsweep: %d points in %.1fs\n", len(points), time.Since(start).Seconds())
	}
}

// rankPolicies ranks the tournament through report.RankPolicies:
// goodput is normalized against the best policy at each rest-of-grid
// point (so big and small configurations weigh equally), then averaged.
// Rows arrive in submission order from sweep.Run, so the ranking is
// identical for any -workers value. The policy dimension is dims[0], so
// values[1:] identifies the group.
func rankPolicies(policies []string, rows []row) []report.PolicyRow {
	results := make([]report.PolicyResult, len(rows))
	for i, r := range rows {
		results[i] = report.PolicyResult{
			Policy: r.values[0], Group: strings.Join(r.values[1:], "\x00"),
			GoodPerHour: r.res.DeploysPerHour, P99S: r.res.P99LatencyS,
			Moves: r.res.DRSMoves + r.res.RebalanceMoves, Errors: r.res.Errors,
		}
	}
	return report.RankPolicies(policies, results)
}

// renderRows writes the result grid to w as csv or an ascii table,
// propagating every write error.
func renderRows(w io.Writer, format, title string, headers []string, rows []row) error {
	if format == "csv" {
		cw := csv.NewWriter(w)
		if err := cw.Write(headers); err != nil {
			return err
		}
		for _, r := range rows {
			rec := append([]string{}, r.values...)
			rec = append(rec,
				strconv.FormatFloat(r.res.DeploysPerHour, 'g', -1, 64),
				csvLat(r.res, r.res.MeanLatencyS),
				csvLat(r.res, r.res.P95LatencyS),
				strconv.Itoa(r.res.Errors))
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	t := report.NewTable(title, headers...)
	for _, r := range rows {
		cells := make([]any, 0, len(headers))
		for _, v := range r.values {
			cells = append(cells, v)
		}
		cells = append(cells, r.res.DeploysPerHour, tableLat(r.res, r.res.MeanLatencyS),
			tableLat(r.res, r.res.P95LatencyS), r.res.Errors)
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
