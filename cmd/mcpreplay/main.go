// Command mcpreplay replays a recorded management trace (from cmd/mcpgen)
// against an alternative cloud configuration — the what-if analysis the
// characterization methodology enables. The replay is open-loop: requests
// fire at their recorded times, so an under-provisioned control plane
// shows up as queueing and latency, exactly as it would have in
// production. The alternative cloud is configured through the shared
// scenario surface: -config file.json, -seed, and repeatable -set
// path=value (see mcpsim -dump-config).
//
//	mcpreplay -set director.cells=1 -set director.cellThreads=2 trace.jsonl
//	mcpreplay -set director.fastProvisioning=false -set topology.hosts=16 trace.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

func main() {
	drainS := flag.Float64("drain", 3600, "extra seconds after the last record to drain in-flight work")
	load := core.BindConfigFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcpreplay [flags] <trace.jsonl|trace.csv>")
		os.Exit(2)
	}
	cfg, err := load()
	if err != nil {
		fatal(err)
	}
	path := flag.Arg(0)
	recs, err := readTrace(path)
	if err != nil {
		fatal(err)
	}
	// Buffer stdout and check the flush: a broken pipe or full disk must
	// exit non-zero, not truncate the artifact with exit status 0.
	out := bufio.NewWriter(os.Stdout)
	err = run(out, path, cfg, recs, *drainS)
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("write stdout: %w", ferr)
	}
	if err != nil {
		fatal(err)
	}
}

// readTrace reads a trace in the format its extension names.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.ReadCSV(f)
	}
	return trace.ReadJSONL(f)
}

// run replays recs, read from the trace called name, against a cloud
// built from cfg, drains drainS seconds past the last submission, and
// writes the report to w. The report is computed from the replay's own
// trace, so recording is on whatever cfg says.
func run(w io.Writer, name string, cfg core.Config, recs []trace.Record, drainS float64) error {
	cfg.Record = true
	cloud, err := core.New(cfg)
	if err != nil {
		return err
	}
	rp, err := workload.NewReplayer(cloud.Env(), cloud.Director(), recs)
	if err != nil {
		return err
	}
	rp.Start()
	last := 0.0
	for _, r := range recs {
		if r.Submit > last {
			last = r.Submit
		}
	}
	cloud.Run(last + drainS)

	st := rp.Stats()
	if _, err := fmt.Fprintf(w, "mcpreplay: %s — %d records; issued %d, unmapped %d, system %d\n\n",
		name, len(recs), st.Issued, st.Unmapped, st.SystemOps); err != nil {
		return err
	}

	out := cloud.Records()
	latT := report.NewTable("Replayed latency by operation (successful)",
		"operation", "n", "mean s", "p50 s", "p95 s", "queue", "cell", "mgmt", "db", "host", "data")
	for _, row := range analysis.LatencyByKind(out) {
		b := row.MeanBreakdown
		latT.AddRow(row.Kind, row.Count, row.MeanLatency, row.P50Latency, row.P95Latency,
			b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data)
	}
	if err := latT.Render(w); err != nil {
		return err
	}

	// Compare against what the original trace experienced.
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	cmpT := report.NewTable("Deploy latency: recorded vs replayed", "trace", "n", "mean s", "p95 s")
	orig := analysis.LatencySample(analysis.FilterKind(recs, "deploy"), "")
	repl := analysis.LatencySample(analysis.FilterKind(out, "deploy"), "")
	cmpT.AddRow("recorded", orig.Count(), orig.Mean(), orig.Percentile(95))
	cmpT.AddRow("replayed", repl.Count(), repl.Mean(), repl.Percentile(95))
	return cmpT.Render(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpreplay:", err)
	os.Exit(1)
}
