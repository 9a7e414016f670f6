package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"cloudmcp/internal/core"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// failingCloser succeeds on every write and fails on Close — the shape
// of a full-disk or NFS write-back error that only surfaces at close
// time. A deferred unchecked `f.Close()` would drop that error and
// mcpgen would exit 0 with a truncated trace on disk.
type failingCloser struct {
	wrote    int
	closed   bool
	writeErr error
	closeErr error
}

func (f *failingCloser) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	f.wrote += len(p)
	return len(p), nil
}
func (f *failingCloser) Close() error { f.closed = true; return f.closeErr }

func sampleRecords() []trace.Record {
	return []trace.Record{{TaskID: 1, Kind: "deploy", Submit: 0, End: 2.5, Latency: 2.5}}
}

func TestFinishTraceReportsCloseError(t *testing.T) {
	fc := &failingCloser{closeErr: errors.New("disk quota exceeded")}
	sw := trace.NewJSONLWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		if err := sw.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	err := finishTrace(sw, fc, "out.jsonl")
	if err == nil {
		t.Fatal("Close error was swallowed")
	}
	if !strings.Contains(err.Error(), "disk quota exceeded") {
		t.Fatalf("error %q does not carry the Close failure", err)
	}
	if !fc.closed {
		t.Fatal("writer was not closed")
	}
	if fc.wrote == 0 {
		t.Fatal("no trace bytes written before close")
	}
}

// A write/flush error must win over a close error: the first failure is
// the root cause. The file is still closed.
func TestFinishTraceWriteErrorWinsAndCloses(t *testing.T) {
	fc := &failingCloser{writeErr: errors.New("disk full"), closeErr: errors.New("also broken")}
	sw := trace.NewJSONLWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		sw.Write(&r)
	}
	err := finishTrace(sw, fc, "out.jsonl")
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("got %v, want the flush failure", err)
	}
	if !fc.closed {
		t.Fatal("writer leaked on the error path")
	}
}

func TestFinishTraceSucceedsAndCloses(t *testing.T) {
	fc := &failingCloser{}
	sw := trace.NewCSVWriter(fc)
	for _, r := range sampleRecords() {
		r := r
		if err := sw.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := finishTrace(sw, fc, "out.csv"); err != nil {
		t.Fatal(err)
	}
	if !fc.closed {
		t.Fatal("writer left open")
	}
	if fc.wrote == 0 {
		t.Fatal("no bytes written")
	}
}

// mcpgen streams records through its own task sink, so the cloud's
// recorder stays off even when the scenario asks for it.
func TestNewCloudForcesRecordOff(t *testing.T) {
	fs := flag.NewFlagSet("mcpgen", flag.ContinueOnError)
	load := core.BindConfigFlags(fs)
	if err := fs.Parse([]string{"-set", "record=true"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := load()
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := newCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Config().Record {
		t.Fatal("record=true reached the cloud; mcpgen would hold the whole trace in memory")
	}
	if _, err := cloud.RunProfile(workload.CloudA(), 0.5*core.Hour); err != nil {
		t.Fatal(err)
	}
	if recs := cloud.Records(); recs != nil {
		t.Fatalf("the recorder kept %d records", len(recs))
	}
}

func TestOpenTraceRejectsUnknownExtension(t *testing.T) {
	if _, _, err := openTrace(t.TempDir() + "/out.xml"); err == nil ||
		!strings.Contains(err.Error(), "unknown trace extension") {
		t.Fatalf("got %v, want unknown-extension error", err)
	}
}
