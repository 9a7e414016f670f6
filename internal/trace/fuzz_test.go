package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets harden the parsers against malformed trace files; `go
// test` runs the seed corpus, and `go test -fuzz` explores further.

func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	WriteJSONL(&buf, []Record{{TaskID: 1, Kind: "deploy", Org: "o", Submit: 1, End: 2, Latency: 1}})
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n{}\n")
	f.Add(`{"task": 9e999}`)
	f.Add("{\"kind\":\"deploy\"}\nnot json")
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadJSONL(strings.NewReader(s))
		if err == nil {
			// Whatever parsed must round-trip without error.
			var out bytes.Buffer
			if werr := WriteJSONL(&out, recs); werr != nil {
				t.Fatalf("reserialize: %v", werr)
			}
		}
	})
}

func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	writeAll(NewCSVWriter(&buf), []Record{{TaskID: 1, Kind: "deploy", Org: "o", Submit: 1, End: 2, Latency: 1}})
	f.Add(buf.String())
	f.Add("")
	f.Add("task,kind\n1,deploy\n")
	f.Add(strings.Repeat(",", 20))
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadCSV(strings.NewReader(s))
		if err == nil {
			var out bytes.Buffer
			if werr := writeAll(NewCSVWriter(&out), recs); werr != nil {
				t.Fatalf("reserialize: %v", werr)
			}
			back, rerr := ReadCSV(bytes.NewReader(out.Bytes()))
			if rerr != nil || len(back) != len(recs) {
				t.Fatalf("round trip: err=%v len %d vs %d", rerr, len(back), len(recs))
			}
		}
	})
}
