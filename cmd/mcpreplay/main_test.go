package main

import (
	"bytes"
	"errors"
	"flag"
	"strconv"
	"strings"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// errWriter fails every write — the shape of a closed pipe or full disk.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// shortTrace records two hours of the cloud-a profile on the default
// cloud.
func shortTrace(t *testing.T) []trace.Record {
	t.Helper()
	cloud, err := core.New(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.RunProfile(workload.CloudA(), 2*core.Hour); err != nil {
		t.Fatal(err)
	}
	return cloud.Records()
}

// load parses the shared configuration flags from args.
func load(t *testing.T, args ...string) core.Config {
	t.Helper()
	fs := flag.NewFlagSet("mcpreplay", flag.ContinueOnError)
	l := core.BindConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := l()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunPropagatesWriteError(t *testing.T) {
	if err := run(errWriter{}, "t.jsonl", load(t), shortTrace(t), 600); err == nil {
		t.Fatal("run on a failing writer = nil, want the write error")
	}
}

// deployQueue returns the deploy row's mean queue seconds from a replay
// report.
func deployQueue(t *testing.T, report string) float64 {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		// operation, n, mean s, p50 s, p95 s, queue, ...
		if f := strings.Fields(line); len(f) > 5 && f[0] == "deploy" {
			q, err := strconv.ParseFloat(f[5], 64)
			if err != nil {
				t.Fatalf("queue cell %q: %v", f[5], err)
			}
			return q
		}
	}
	t.Fatalf("no deploy row in:\n%s", report)
	return 0
}

// Replaying on one two-thread cell instead of the default director
// queues deploys at the director: the -set knobs reach the replay cloud.
func TestRunReplaysAgainstTheGivenConfig(t *testing.T) {
	recs := shortTrace(t)
	replay := func(args ...string) string {
		var buf bytes.Buffer
		if err := run(&buf, "t.jsonl", load(t, args...), recs, 600); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := deployQueue(t, replay())
	small := deployQueue(t, replay("-set", "director.cells=1", "-set", "director.cellThreads=2"))
	if small <= base {
		t.Fatalf("deploy queue on 1 cell x 2 threads = %g s, want above the default director's %g s", small, base)
	}
}
