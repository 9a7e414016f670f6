// Command mcpgen generates a synthetic management-operation trace by
// running a workload profile against a simulated cloud, writing one
// record per completed operation. The format follows the -o extension:
// .jsonl (JSON lines) or .csv. The cloud is configured through the shared
// scenario surface: -config file.json, -seed, and repeatable -set
// path=value (see mcpsim -dump-config).
//
//	mcpgen -profile cloud-a -hours 48 -o cloud-a.jsonl
//	mcpgen -profile cloud-b -hours 48 -set director.fastProvisioning=false -o cloud-b-full.csv
//
// Traces are consumed by cmd/mcpchar, cmd/mcpreplay or any external
// tooling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cloudmcp/internal/core"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

func main() {
	var (
		profileName = flag.String("profile", "cloud-a", "workload profile: cloud-a, cloud-b, classic-dc")
		hours       = flag.Float64("hours", 24, "simulated hours")
		out         = flag.String("o", "trace.jsonl", "output file (.jsonl or .csv)")
	)
	load := core.BindConfigFlags(flag.CommandLine)
	flag.Parse()

	profile, err := workload.ByName(*profileName)
	if err != nil {
		fatal(err)
	}
	cfg, err := load()
	if err != nil {
		fatal(err)
	}
	cloud, err := newCloud(cfg)
	if err != nil {
		fatal(err)
	}

	f, sw, err := openTrace(*out)
	if err != nil {
		fatal(err)
	}
	cloud.Plane().AddTaskSink(sw.Sink)

	st, err := cloud.RunProfile(profile, *hours*core.Hour)
	if err != nil {
		fatal(err)
	}
	if err := finishTrace(sw, f, *out); err != nil {
		fatal(err)
	}
	fmt.Printf("mcpgen: wrote %d records (%d vApp requests over %.1f h of %s) to %s\n",
		sw.N(), st.Arrivals, *hours, profile.Name, *out)
}

// newCloud builds the cloud with the in-memory recorder off, whatever the
// scenario's record field says. Records stream straight to the output
// file as tasks complete (the trace.Writer byte-identity test guarantees
// the artifact is the same as the old accumulate-then-dump path), so a
// 48-hour trace never holds every record in memory.
func newCloud(cfg core.Config) (*core.Cloud, error) {
	cfg.Record = false
	return core.New(cfg)
}

// openTrace creates the output file and a streaming writer in the format
// implied by name's extension. The extension is validated before the
// file is created, so a bad -o leaves no empty artifact behind.
func openTrace(name string) (io.Closer, *trace.Writer, error) {
	var mk func(io.Writer) *trace.Writer
	switch {
	case strings.HasSuffix(name, ".csv"):
		mk = trace.NewCSVWriter
	case strings.HasSuffix(name, ".jsonl"):
		mk = trace.NewJSONLWriter
	default:
		return nil, nil, fmt.Errorf("unknown trace extension in %q (want .jsonl or .csv)", name)
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, nil, err
	}
	return f, mk(f), nil
}

// finishTrace flushes the streaming writer and closes the file,
// reporting the first error. A Close error is reported, not swallowed:
// the OS may defer write-back until close (NFS, full disks), so a
// deferred unchecked Close could announce success for a truncated trace.
func finishTrace(sw *trace.Writer, c io.Closer, name string) error {
	err := sw.Flush()
	if cerr := c.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", name, cerr)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpgen:", err)
	os.Exit(1)
}
