package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"cloudmcp/internal/workload"
)

func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("mcpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// Reconciliation settings reach mcpsim through -set and are validated by
// the scenario loader, like every other configuration knob.
func TestValidateReconcileFlags(t *testing.T) {
	cases := []struct {
		sets []string
		ok   bool
	}{
		{nil, true},                      // off
		{[]string{"reconcile={}"}, true}, // defaults
		{[]string{"reconcile.intervalS=1", "reconcile.depth=1"}, true}, // minimal legal values
		{[]string{"reconcile.intervalS=-60"}, false},                   // interval must be positive
		{[]string{"reconcile.depth=-3"}, false},                        // depth must be at least one worker
		{[]string{"reconcile.controllers=[\"nope\"]"}, false},
	}
	for _, c := range cases {
		var args []string
		for _, s := range c.sets {
			args = append(args, "-set", s)
		}
		_, err := parse(args...)
		if (err == nil) != c.ok {
			t.Errorf("mcpsim %v: err = %v, want ok=%v", args, err, c.ok)
		}
	}
}

func TestValidateReconcileFlagsMessagesNameTheFlag(t *testing.T) {
	if _, err := parse("-set", "reconcile.intervalS=-60"); err == nil || !strings.Contains(err.Error(), "reconcile: interval") {
		t.Fatalf("interval error = %v, want it to name the reconcile interval", err)
	}
	if _, err := parse("-set", "reconcile.depth=-3"); err == nil || !strings.Contains(err.Error(), "reconcile: depth") {
		t.Fatalf("depth error = %v, want it to name the reconcile depth", err)
	}
	if _, err := parse("-set", "reconcile.intervl=60"); err == nil || !strings.Contains(err.Error(), "reconcile.intervl") {
		t.Fatalf("typo error = %v, want it to name the path", err)
	}
}

// An explicit zero is used as written, so one that cannot build a cloud
// fails the run instead of silently becoming the default.
func TestRunRejectsInvalidExplicitZeros(t *testing.T) {
	for _, set := range []string{"director.cells=0", "mgmt.threads=0", "topology.hosts=0"} {
		o, err := parse("-set", set, "-hours", "0.1")
		if err != nil {
			t.Fatalf("-set %s: %v", set, err)
		}
		if err := run(io.Discard, o.cfg, workload.CloudA(), o.hours, ""); err == nil {
			t.Errorf("-set %s ran, want an error", set)
		}
	}
}

// The summary reports the configuration the cloud ran, whichever way it
// was given: a scenario's full clones print fast=false, and a scenario's
// fault block prints the fault, retry and goodput tables.
func TestRunReportsLoadedScenario(t *testing.T) {
	cases := []struct {
		scenario string
		want     []string
	}{
		{"sticky-tenants", []string{"(fast=false)"}},
		{"fault-burst", []string{"(fast=true)", "Fault injection (rate 0.10) and retries", "give-ups (deadline)"}},
	}
	for _, c := range cases {
		o, err := parse("-config", "../../scenarios/"+c.scenario+".json", "-hours", "0.25")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, o.cfg, workload.CloudA(), o.hours, ""); err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		for _, w := range c.want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s: output missing %q:\n%s", c.scenario, w, buf.String())
			}
		}
	}
}

// The metrics tables follow the scenario's metrics flag; -metrics-out
// alone writes the file and leaves stdout as it was.
func TestRunMetricsTablesFollowConfig(t *testing.T) {
	render := func(metricsOut string, args ...string) string {
		t.Helper()
		o, err := parse(append([]string{"-hours", "0.1"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, o.cfg, workload.CloudA(), o.hours, metricsOut); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	const title = "bottleneck attribution: top"
	plain := render("")
	if got := render(t.TempDir() + "/m.json"); got != plain {
		t.Fatalf("-metrics-out changed stdout:\n%s\nwant:\n%s", got, plain)
	}
	if got := render("", "-set", "metrics=true"); !strings.Contains(got, title) || strings.Contains(plain, title) {
		t.Fatalf("metrics=true output lacks the metrics tables, or the plain run has them:\n%s", got)
	}
}

// The summary's DB-utilization row reads the database the run used:
// under the WAL model that is the commit log's flush stage, not the
// aggregate connection pool, which stays idle.
func TestRunReportsWALDBUtilization(t *testing.T) {
	o, err := parse("-set", "mgmt.database={}", "-hours", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, o.cfg, workload.CloudA(), o.hours, ""); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if value, ok := strings.CutPrefix(line, "mgmt DB utilization"); ok {
			if strings.TrimSpace(value) == "0" {
				t.Fatalf("WAL run reports zero DB utilization:\n%s", buf.String())
			}
			return
		}
	}
	t.Fatalf("output lacks the DB utilization row:\n%s", buf.String())
}
