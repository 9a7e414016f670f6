package trace

import (
	"bytes"
	"errors"
	"testing"
)

// The streaming Writer must produce byte-identical output to the batch
// functions: mcpgen switched from accumulate-then-dump to streaming, and
// its artifacts may not change by a single byte.
func TestWriterMatchesBatchJSONL(t *testing.T) {
	recs := sampleRecords()
	var batch bytes.Buffer
	if err := WriteJSONL(&batch, recs); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw := NewJSONLWriter(&stream)
	for i := range recs {
		if err := sw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatalf("streaming JSONL differs from batch:\nbatch:  %q\nstream: %q", batch.String(), stream.String())
	}
	if sw.N() != len(recs) {
		t.Fatalf("N = %d, want %d", sw.N(), len(recs))
	}
}

func TestWriterMatchesBatchCSV(t *testing.T) {
	recs := sampleRecords()
	// Include a hostile field to exercise csv quoting equally.
	recs[2].Err = "boom,\"quoted\"\nnewline"
	var batch bytes.Buffer
	if err := writeAll(NewCSVWriter(&batch), recs); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw := NewCSVWriter(&stream)
	for i := range recs {
		if err := sw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatalf("streaming CSV differs from batch:\nbatch:  %q\nstream: %q", batch.String(), stream.String())
	}
}

func TestWriterEmptyCSVMatchesBatch(t *testing.T) {
	var batch bytes.Buffer
	if err := writeAll(NewCSVWriter(&batch), nil); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw := NewCSVWriter(&stream)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil { // idempotent: header only once
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatalf("zero-record streaming CSV %q != batch %q", stream.String(), batch.String())
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// A mid-stream write failure must be sticky and surface at Flush even if
// the caller ignored the per-record error — the CLI's single Flush check
// is its only guard against announcing success for a truncated trace.
func TestWriterStickyError(t *testing.T) {
	recs := sampleRecords()
	sw := NewJSONLWriter(&failWriter{n: 0})
	for i := range recs {
		sw.Write(&recs[i]) // small records sit in the bufio buffer; force out:
	}
	for i := 0; i < 10000; i++ {
		sw.Write(&recs[0])
	}
	if err := sw.Flush(); err == nil {
		t.Fatal("Flush after failed writes = nil, want error")
	}
	nAfterErr := sw.N()
	sw.Write(&recs[0])
	if sw.N() != nAfterErr {
		t.Fatal("Write after sticky error still counted a record")
	}
}
