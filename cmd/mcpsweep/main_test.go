package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"cloudmcp/internal/core"
)

// errWriter fails every write — the shape of a closed pipe or full
// disk. Both output formats must propagate it so mcpsweep exits
// non-zero instead of silently truncating the grid.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func sampleRows() ([]string, []row) {
	headers := []string{"cells", "deploys/h", "mean lat s", "p95 lat s", "errors"}
	rows := []row{
		{values: []string{"1"}, res: core.ClosedLoopResult{Deploys: 10, DeploysPerHour: 60, MeanLatencyS: 30, P95LatencyS: 55}},
		{values: []string{"2"}, res: core.ClosedLoopResult{Deploys: 0}}, // zero-deploy point: n/a latency
	}
	return headers, rows
}

func TestRenderRowsPropagatesWriteError(t *testing.T) {
	headers, rows := sampleRows()
	for _, format := range []string{"ascii", "csv"} {
		if err := renderRows(errWriter{}, format, "t", headers, rows); err == nil {
			t.Fatalf("%s render on failing writer = nil, want error", format)
		}
	}
}

func TestRenderRowsCSV(t *testing.T) {
	headers, rows := sampleRows()
	var buf bytes.Buffer
	if err := renderRows(&buf, "csv", "t", headers, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d csv lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cells,deploys/h,mean lat s,p95 lat s,errors" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "n/a") {
		t.Fatalf("zero-deploy row %q should render latency as n/a", lines[2])
	}
}

func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("mcpsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// A value no cloud can be built from fails while the grid is built,
// before any point simulates, with an error naming its path: the values
// the per-field table used to reject, and the scenario enums.
func TestGridRejectsBadValuesNamingThePath(t *testing.T) {
	for _, c := range []struct{ vary, path string }{
		{"topology.hosts=8,0", "topology.hosts=0"},
		{"director.cells=x", "director.cells"},
		{"plane.db=nope", "plane.db=nope"},
		{"mgmt.dbConns=0", "mgmt.dbConns=0"},
		{"topology.templateDiskGB=-1", "topology.templateDiskGB=-1"},
		{"director.maxChainLen=-1", "director.maxChainLen=-1"},
		{"director.fastProvisioning=yes", "director.fastProvisioning"},
		{"mgmt.granularity=weird", "mgmt.granularity=weird"},
		{"director.placement=weird", "director.placement=weird"},
		{"policy=zzz", "policy=zzz"},
		{"topology.hostz=4", "topology.hostz"},
	} {
		o, err := parse("-vary", c.vary)
		if err != nil {
			t.Fatalf("-vary %s: %v", c.vary, err)
		}
		if _, err := buildGrid(o); err == nil || !strings.Contains(err.Error(), c.path) {
			t.Errorf("-vary %s: err = %v, want an error naming %s", c.vary, err, c.path)
		}
	}
	for _, vary := range []string{"concurrency=0", "concurrency=x", "director.cells=", "=1,2"} {
		if _, err := parse("-vary", vary); err == nil {
			t.Errorf("-vary %s accepted", vary)
		}
	}
}

// E18's linked-clone closed loop, written as a command line: the grid's
// rows equal RunE18's cells, point for point.
func TestGridReproducesE18(t *testing.T) {
	const horizon = 300
	o, err := parse("-vary", "plane.shards=1,2", "-vary", "plane.db=shared,per-shard",
		"-set", "topology.datastoreMBps=4000", "-set", "director.maxChainLen=1048576",
		"-set", "director.rebalanceThreshold=0", "-concurrency", "192", "-horizon", "300")
	if err != nil {
		t.Fatal(err)
	}
	points, err := buildGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := runGrid(o, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	e18, err := core.RunE18(core.E18Params{Seed: 1, ShardCounts: []int{1, 2}, Clients: 192, HorizonS: horizon})
	if err != nil {
		t.Fatal(err)
	}
	var want []core.E18Cell
	for _, p := range e18.Points {
		want = append(want, p.SharedLinked, p.PerShardLinked)
	}
	for i, r := range rows {
		got := core.E18Cell{GoodPerHour: r.res.DeploysPerHour, P99S: r.res.P99LatencyS, DBUtil: r.res.DBUtil}
		if got != want[i] || got.GoodPerHour == 0 {
			t.Errorf("point %v: grid %+v, E18 %+v", r.values, got, want[i])
		}
	}
}

func TestRenderRowsASCII(t *testing.T) {
	headers, rows := sampleRows()
	var buf bytes.Buffer
	if err := renderRows(&buf, "ascii", "title-here", headers, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title-here", "deploys/h", "n/a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ascii output missing %q:\n%s", want, out)
		}
	}
}
