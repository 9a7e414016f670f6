package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
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
	f.Add(`{"task":1,"submit":-7200,"end":1}` + "\n" + `{"task":2,"submit":1,"end":2}`)
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadJSONL(strings.NewReader(s))
		if err == nil {
			for i, r := range recs {
				if !validTimes(r) {
					t.Fatalf("record %d accepted with submit %v end %v", i, r.Submit, r.End)
				}
			}
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
	f.Add(strings.Replace(buf.String(), ",1,2,", ",NaN,2,", 1))
	f.Add(strings.Replace(buf.String(), ",1,2,", ",1,-Inf,", 1))
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadCSV(strings.NewReader(s))
		if err == nil {
			for i, r := range recs {
				if !validTimes(r) {
					t.Fatalf("record %d accepted with submit %v end %v", i, r.Submit, r.End)
				}
			}
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

// validTimes reports whether r's submit and end times are finite and
// non-negative, as every record a reader accepts must be.
func validTimes(r Record) bool {
	for _, v := range []float64{r.Submit, r.End} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// FuzzRecorder sinks tasks with random fields, in runs of random length
// between reads, and checks every read against FromTask of the same
// tasks. Times are random bit patterns, NaN and Inf included, so floats
// compare by bits. Each script byte is a read (low bit 0) or a run of up
// to 127*9 Sinks, so a few bytes cross block boundaries.
func FuzzRecorder(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0})
	f.Add(int64(2), []byte{255, 0, 229, 0, 0, 255, 255})
	f.Add(int64(3), []byte{1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		orgs := []string{"", "org1", "org2", `org,"3"`}
		errs := []error{nil, nil, errors.New("boom"), errors.New("multi\nline"), errors.New("")}
		randFloat := func() float64 {
			if r.Intn(4) == 0 {
				return math.Float64frombits(r.Uint64())
			}
			return float64(r.Intn(1e6)) / 8
		}
		rc := NewRecorder()
		var ref []Record
		check := func() {
			got := rc.Records()
			if len(got) != len(ref) || cap(got) != len(ref) || (len(ref) == 0) != (got == nil) {
				t.Fatalf("read %d records (cap %d, nil %v), want %d", len(got), cap(got), got == nil, len(ref))
			}
			for i := range ref {
				if !sameRecord(got[i], ref[i]) {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], ref[i])
				}
			}
		}
		for _, b := range script {
			if b&1 == 0 {
				check()
				continue
			}
			for n := int(b>>1) * 9; n > 0; n-- {
				task := &mgmt.Task{
					ID: r.Int63() - r.Int63(),
					Req: ops.Request{
						Kind: ops.Kind(r.Intn(20) - 2), Mode: ops.CloneMode(r.Intn(3)),
						TemplateID: inventory.ID(r.Int63()), VMID: inventory.ID(r.Int63()),
						Submit: randFloat(), Org: orgs[r.Intn(len(orgs))],
					},
					Start: sim.Time(randFloat()), End: sim.Time(randFloat()),
					Breakdown: ops.Breakdown{Queue: randFloat(), Cell: randFloat(), Mgmt: randFloat(),
						DB: randFloat(), Host: randFloat(), Data: randFloat()},
					Err: errs[r.Intn(len(errs))],
				}
				rc.Sink(task)
				ref = append(ref, FromTask(task))
			}
		}
		check()
	})
}

// sameRecord compares two records field by field, floats by their bits.
func sameRecord(a, b Record) bool {
	fa := []float64{a.Submit, a.End, a.Latency, a.Queue, a.Cell, a.Mgmt, a.DB, a.Host, a.Data}
	fb := []float64{b.Submit, b.End, b.Latency, b.Queue, b.Cell, b.Mgmt, b.DB, b.Host, b.Data}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.TaskID == b.TaskID && a.Kind == b.Kind && a.Mode == b.Mode && a.Org == b.Org &&
		a.VM == b.VM && a.Template == b.Template && a.Err == b.Err
}
