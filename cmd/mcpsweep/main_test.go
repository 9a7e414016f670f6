package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/core"
)

// errWriter fails every write — the shape of a closed pipe or full
// disk. Both output formats must propagate it so mcpsweep exits
// non-zero instead of silently truncating the grid.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func sampleRows() ([]string, []core.GridRow) {
	headers := []string{"cells", "deploys/h", "mean lat s", "p95 lat s", "errors"}
	rows := []core.GridRow{
		{Labels: []string{"1"}, Result: core.ClosedLoopResult{Deploys: 10, DeploysPerHour: 60, MeanLatencyS: 30, P95LatencyS: 55}},
		{Labels: []string{"2"}, Result: core.ClosedLoopResult{Deploys: 0}}, // zero-deploy point: n/a latency
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

// A -vary value no cloud can be built from fails while the grid loads,
// naming its path (the engine's table is in internal/core); a malformed
// -vary or a numeric flag out of range fails at parse time.
func TestGridRejectsBadValuesNamingThePath(t *testing.T) {
	o, err := parse("-vary", "topology.hosts=8,0", "-vary", "plane.db=shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.grid.Points(o.load); err == nil || !strings.Contains(err.Error(), "topology.hosts=0 plane.db=shared") {
		t.Errorf("err = %v, want an error naming topology.hosts=0 plane.db=shared", err)
	}
	for _, args := range [][]string{
		{"-vary", "concurrency=0"},
		{"-vary", "concurrency=x"},
		{"-vary", "director.cells="},
		{"-vary", "=1,2"},
		{"-vary", "director.cells=1,2", "-concurrency", "-3"},
		{"-vary", "director.cells=1,2", "-concurrency", "0"},
		{"-vary", "director.cells=1,2", "-horizon", "0"},
		{"-vary", "director.cells=1,2", "-horizon", "-60"},
		{"-vary", "director.cells=1,2", "-horizon", "NaN"},
		{"-vary", "director.cells=1,2", "-horizon", "+Inf"},
		{"-vary", "director.cells=1,2", "-warmup", "NaN"},
		{"-vary", "director.cells=1,2", "-warmup", "-30", "-horizon", "60"},
		{"-vary", "director.cells=1,2", "-warmup", "60", "-horizon", "60"},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%s accepted", strings.Join(args, " "))
		}
	}
}

// E18's closed-loop leg, written as a command line, is E18's grid: the
// same dimensions, clients, horizon and warmup, and every point loads
// the same Config. Nothing simulates.
func TestGridReproducesE18(t *testing.T) {
	o, err := parse("-vary", "plane.shards=1,2,4,8", "-vary", "plane.db=shared,per-shard",
		"-vary", "director.fastProvisioning=false,true",
		"-set", "director.rebalanceThreshold=0", "-set", "topology.datastoreMBps=4000",
		"-set", "director.maxChainLen=1048576", "-concurrency", "192", "-horizon", "1800")
	if err != nil {
		t.Fatal(err)
	}
	want := core.E18Grid(1800)
	if !reflect.DeepEqual(o.grid.Dims, want.Dims) || o.grid.Clients != want.Clients ||
		o.grid.HorizonS != want.HorizonS || o.grid.WarmupS != want.WarmupS || o.grid.PointSeeds {
		t.Fatalf("command line grid %+v\nE18 grid %+v", o.grid, want)
	}
	got, err := o.grid.Points(o.load)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints, err := want.Points(core.DefaultLoader(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 || !reflect.DeepEqual(got, wantPoints) {
		t.Fatalf("command line points differ from E18's:\n%+v\n%+v", got, wantPoints)
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
