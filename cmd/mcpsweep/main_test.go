package main

import (
	"bytes"
	"errors"
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

// The enum grid dimensions accept exactly the scenario file's spellings,
// with the same error text, because both call the parser beside the type.
func TestVaryEnumsShareTheScenarioParser(t *testing.T) {
	for _, c := range []struct{ vary, scenario string }{
		{"granularity=weird", `{"mgmt": {"granularity": "weird"}}`},
		{"placement=weird", `{"director": {"placement": "weird"}}`},
	} {
		var v varyFlag
		verr := v.Set(c.vary)
		_, ferr := core.LoadConfig(strings.NewReader(c.scenario))
		if verr == nil || ferr == nil || verr.Error() != ferr.Error() {
			t.Errorf("-vary %s: %v; scenario: %v; want the same error", c.vary, verr, ferr)
		}
	}
	var v varyFlag
	if err := v.Set("granularity=coarse,host,entity"); err != nil {
		t.Fatal(err)
	}
	if err := v.Set("placement=most-free,sticky-org"); err != nil {
		t.Fatal(err)
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
