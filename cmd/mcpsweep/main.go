// Command mcpsweep runs an arbitrary what-if parameter grid — the
// generalization of the hardcoded E6/E10/E11 sweeps. It loads a base
// configuration through the shared scenario surface (-config file.json,
// -seed, repeatable -set path=value; the defaults otherwise), varies one
// or more fields over a grid, runs the closed-loop provisioning workload
// at every grid point in parallel through internal/sweep, and emits one
// result row per point as an ASCII table or CSV. Output is byte-identical
// for any -workers value at a fixed seed.
//
//	mcpsweep -vary cells=1,2,4,8 -vary concurrency=16,64
//	mcpsweep -config scenarios/paper-era.json -vary dbConns=1,2,4 -format csv
//	mcpsweep -vary granularity=coarse,host,entity -horizon 1200
//	mcpsweep -policy default,binpack,spread -vary hosts=16,64
//	mcpsweep -set plane.shards=4 -vary dbConns=1,4
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
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/core"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// runSpec carries the per-point knobs that are not Config fields.
type runSpec struct {
	clients int // closed-loop deploy clients
}

// field is one vary-able knob: how to parse a value and apply it.
type field struct {
	name  string
	apply func(cfg *core.Config, rs *runSpec, val string) error
}

func intField(name string, set func(*core.Config, *runSpec, int)) field {
	return field{name, func(cfg *core.Config, rs *runSpec, val string) error {
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return fmt.Errorf("%s=%q: want a positive integer", name, val)
		}
		set(cfg, rs, n)
		return nil
	}}
}

func floatField(name string, set func(*core.Config, float64)) field {
	return field{name, func(cfg *core.Config, _ *runSpec, val string) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("%s=%q: want a positive number", name, val)
		}
		set(cfg, f)
		return nil
	}}
}

// fields is the registry of grid dimensions mcpsweep can vary.
var fields = []field{
	intField("cells", func(c *core.Config, _ *runSpec, n int) { c.Director.Cells = n }),
	intField("cellThreads", func(c *core.Config, _ *runSpec, n int) { c.Director.CellThreads = n }),
	intField("threads", func(c *core.Config, _ *runSpec, n int) { c.Mgmt.Threads = n }),
	intField("dbConns", func(c *core.Config, _ *runSpec, n int) { c.Mgmt.DBConns = n }),
	intField("hostSlots", func(c *core.Config, _ *runSpec, n int) { c.Mgmt.HostSlots = n }),
	intField("maxInFlight", func(c *core.Config, _ *runSpec, n int) { c.Mgmt.MaxInFlight = n }),
	intField("hosts", func(c *core.Config, _ *runSpec, n int) { c.Topology.Hosts = n }),
	intField("datastores", func(c *core.Config, _ *runSpec, n int) { c.Topology.Datastores = n }),
	intField("maxChainLen", func(c *core.Config, _ *runSpec, n int) { c.Director.MaxChainLen = n }),
	intField("concurrency", func(_ *core.Config, rs *runSpec, n int) { rs.clients = n }),
	floatField("templateGB", func(c *core.Config, f float64) { c.Topology.TemplateDiskGB = f }),
	floatField("datastoreMBps", func(c *core.Config, f float64) { c.Topology.DatastoreMBps = f }),
	{"fast", func(cfg *core.Config, _ *runSpec, val string) error {
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("fast=%q: want true/false", val)
		}
		cfg.Director.FastProvisioning = b
		return nil
	}},
	{"granularity", func(cfg *core.Config, _ *runSpec, val string) (err error) {
		cfg.Mgmt.Granularity, err = mgmt.ParseGranularity(val)
		return err
	}},
	{"placement", func(cfg *core.Config, _ *runSpec, val string) (err error) {
		cfg.Director.Placement, err = clouddir.ParsePlacement(val)
		return err
	}},
	{"policy", func(cfg *core.Config, _ *runSpec, val string) error {
		if _, err := policy.Named(val); err != nil {
			return err
		}
		cfg.Policy = val
		return nil
	}},
}

func fieldByName(name string) (field, bool) {
	for _, f := range fields {
		if f.name == name {
			return f, true
		}
	}
	return field{}, false
}

func fieldNames() string {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

// varySpec is one -vary flag: a field and its value list.
type varySpec struct {
	field  field
	values []string
}

// varyFlag accumulates repeated -vary flags in command-line order.
type varyFlag struct{ specs []varySpec }

func (v *varyFlag) String() string {
	var parts []string
	for _, s := range v.specs {
		parts = append(parts, s.field.name+"="+strings.Join(s.values, ","))
	}
	return strings.Join(parts, " ")
}

func (v *varyFlag) Set(s string) error {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || vals == "" {
		return fmt.Errorf("want field=v1,v2,... got %q", s)
	}
	f, ok := fieldByName(name)
	if !ok {
		return fmt.Errorf("unknown field %q (known: %s)", name, fieldNames())
	}
	for _, prev := range v.specs {
		if prev.field.name == f.name {
			return fmt.Errorf("field %q varied twice; give all its values in one -vary", f.name)
		}
	}
	values := strings.Split(vals, ",")
	// Validate every value up front against a scratch config so a typo
	// fails before hours of simulation.
	for _, val := range values {
		scratch, rs := core.DefaultConfig(1), runSpec{clients: 1}
		if err := f.apply(&scratch, &rs, val); err != nil {
			return err
		}
	}
	v.specs = append(v.specs, varySpec{field: f, values: values})
	return nil
}

// row is one grid point's rendered result.
type row struct {
	values []string // one per varied field
	res    core.ClosedLoopResult
}

func main() {
	var vary varyFlag
	flag.Var(&vary, "vary", "field=v1,v2,... grid dimension (repeatable); fields: "+fieldNames())
	policyList := flag.String("policy", "",
		"comma-separated policy sets to race as a tournament (known: "+strings.Join(policy.Names(), ", ")+")")
	concurrency := flag.Int("concurrency", 32, "closed-loop deploy clients (unless varied)")
	horizon := flag.Float64("horizon", 600, "simulated seconds per grid point")
	warmup := flag.Float64("warmup", 0, "warmup seconds excluded from measurement (0 = horizon/10)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	format := flag.String("format", "ascii", "output format: ascii or csv")
	pointSeeds := flag.Bool("point-seeds", false, "derive an independent seed per grid point instead of sharing the master seed")
	progress := flag.Bool("progress", false, "print per-point completion to stderr")
	load := core.BindConfigFlags(flag.CommandLine)
	flag.Parse()

	// -policy a,b,c is sugar for a slowest-varying policy dimension plus
	// a ranking table over the rest of the grid.
	var tournament []string
	if *policyList != "" {
		for _, prev := range vary.specs {
			if prev.field.name == "policy" {
				fatal(fmt.Errorf("use either -policy or -vary policy=..., not both"))
			}
		}
		f, _ := fieldByName("policy")
		tournament = strings.Split(*policyList, ",")
		for _, val := range tournament {
			scratch, rs := core.DefaultConfig(1), runSpec{clients: 1}
			if err := f.apply(&scratch, &rs, val); err != nil {
				fatal(err)
			}
		}
		vary.specs = append([]varySpec{{field: f, values: tournament}}, vary.specs...)
	}
	if len(vary.specs) == 0 {
		fatal(fmt.Errorf("nothing to sweep: pass at least one -vary field=v1,v2,... (fields: %s)", fieldNames()))
	}
	if *format != "ascii" && *format != "csv" {
		fatal(fmt.Errorf("unknown format %q (want ascii or csv)", *format))
	}
	if *warmup == 0 {
		*warmup = *horizon / 10
	}
	if *warmup >= *horizon {
		fatal(fmt.Errorf("warmup %.0fs must be below the horizon %.0fs", *warmup, *horizon))
	}

	base, err := load()
	if err != nil {
		fatal(err)
	}

	// Row-major grid: the first -vary flag varies slowest.
	total := 1
	for _, s := range vary.specs {
		total *= len(s.values)
	}
	assign := func(index int) []string {
		vals := make([]string, len(vary.specs))
		for i := len(vary.specs) - 1; i >= 0; i-- {
			n := len(vary.specs[i].values)
			vals[i] = vary.specs[i].values[index%n]
			index /= n
		}
		return vals
	}

	opts := sweep.Options{MasterSeed: base.Seed, Workers: *workers}
	if *progress {
		opts.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "mcpsweep: %d/%d points done (%.1fs)\n",
				p.Done, p.Total, p.Elapsed.Seconds())
		}
	}
	start := time.Now()
	rows, err := sweep.Run(opts, total, func(pt sweep.Point) (row, error) {
		cfg := base // per-point copy; applied fields only touch value fields
		if *pointSeeds {
			cfg.Seed = pt.Seed
		}
		rs := runSpec{clients: *concurrency}
		vals := assign(pt.Index)
		for i, s := range vary.specs {
			if err := s.field.apply(&cfg, &rs, vals[i]); err != nil {
				return row{}, err
			}
		}
		res, err := core.RunClosedLoop(cfg, rs.clients, *horizon, *warmup)
		return row{values: vals, res: res}, err
	})
	if err != nil {
		fatal(err)
	}

	headers := make([]string, 0, len(vary.specs)+4)
	for _, s := range vary.specs {
		headers = append(headers, s.field.name)
	}
	headers = append(headers, "deploys/h", "mean lat s", "p95 lat s", "errors")
	title := fmt.Sprintf("mcpsweep: %d-point grid, %.0fs horizon, seed %d",
		total, *horizon, base.Seed)
	// Buffer stdout and check the flush: a full disk or closed pipe must
	// exit non-zero, not silently truncate the grid.
	out := bufio.NewWriter(os.Stdout)
	err = renderRows(out, *format, title, headers, rows)
	if err == nil && len(tournament) > 0 && *format == "ascii" {
		rt := report.PolicyTable(
			"policy tournament: ranking by mean normalized deploys/h", rankPolicies(tournament, rows))
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
	if *progress {
		fmt.Fprintf(os.Stderr, "mcpsweep: %d points in %.1fs\n", total, time.Since(start).Seconds())
	}
}

// rankPolicies aggregates tournament rows into the ranking table:
// goodput is normalized against the best policy at each rest-of-grid
// point (so big and small configurations weigh equally), then averaged.
// Rows arrive in submission order from sweep.Run and the sort key is a
// total order, so the ranking is identical for any -workers value.
// The policy dimension is specs[0], so values[1:] identifies the group.
func rankPolicies(policies []string, rows []row) []report.PolicyRow {
	groupMax := make(map[string]float64)
	groupOf := func(r row) string { return strings.Join(r.values[1:], "\x00") }
	for _, r := range rows {
		if k := groupOf(r); r.res.DeploysPerHour > groupMax[k] {
			groupMax[k] = r.res.DeploysPerHour
		}
	}
	out := make([]report.PolicyRow, 0, len(policies))
	for _, pol := range policies {
		pr := report.PolicyRow{Policy: pol}
		var n int
		for _, r := range rows {
			if r.values[0] != pol {
				continue
			}
			n++
			if m := groupMax[groupOf(r)]; m > 0 {
				pr.Score += r.res.DeploysPerHour / m
			}
			pr.GoodPerHour += r.res.DeploysPerHour
			pr.P99S += r.res.P99LatencyS
			pr.Moves += float64(r.res.DRSMoves + r.res.RebalanceMoves)
			pr.Errors += int64(r.res.Errors)
		}
		if n > 0 {
			pr.Score /= float64(n)
			pr.GoodPerHour /= float64(n)
			pr.P99S /= float64(n)
			pr.Moves /= float64(n)
		}
		out = append(out, pr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Policy < out[j].Policy
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
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
