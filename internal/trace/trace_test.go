package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
)

func sampleRecords() []Record {
	return []Record{
		{TaskID: 1, Kind: "deploy", Mode: "linked", Org: "orgA", Submit: 10, End: 25,
			Latency: 15, Queue: 2, Cell: 1, Mgmt: 2, DB: 0.5, Host: 4, Data: 5.5},
		{TaskID: 2, Kind: "powerOn", Org: "orgA", Submit: 26, End: 31,
			Latency: 5, Queue: 0, Cell: 0.3, Mgmt: 0.8, DB: 0.2, Host: 3.7},
		{TaskID: 3, Kind: "destroy", Org: "orgB", Submit: 40, End: 44,
			Latency: 4, Err: "boom"},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := writeAll(NewCSVWriter(&buf), recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripHostileErrStrings(t *testing.T) {
	// Error strings flow verbatim from the model into the trace; commas,
	// quotes, and newlines must survive both codecs without corrupting
	// neighboring records.
	recs := []Record{
		{TaskID: 1, Kind: "deploy", Org: "orgA", Submit: 1, End: 2, Latency: 1,
			Err: `quota exceeded: org "orgA", cell 2`},
		{TaskID: 2, Kind: "deploy", Org: "orgB", Submit: 3, End: 4, Latency: 1,
			Err: "multi\nline\nfailure"},
		{TaskID: 3, Kind: "destroy", Org: "orgC", Submit: 5, End: 6, Latency: 1,
			Err: `comma, "quoted", and
a newline together`},
		{TaskID: 4, Kind: "powerOn", Org: "orgC", Submit: 7, End: 8, Latency: 1},
	}
	for name, codec := range map[string]struct {
		write func(*bytes.Buffer, []Record) error
		read  func(*bytes.Buffer) ([]Record, error)
	}{
		"csv": {func(b *bytes.Buffer, r []Record) error { return writeAll(NewCSVWriter(b), r) },
			func(b *bytes.Buffer) ([]Record, error) { return ReadCSV(b) }},
		"jsonl": {func(b *bytes.Buffer, r []Record) error { return WriteJSONL(b, r) },
			func(b *bytes.Buffer) ([]Record, error) { return ReadJSONL(b) }},
	} {
		var buf bytes.Buffer
		if err := codec.write(&buf, recs); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		got, err := codec.read(&buf)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s record %d: %+v != %+v", name, i, got[i], recs[i])
			}
		}
	}
}

func TestCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestCSVRejectsBadNumbers(t *testing.T) {
	recs := sampleRecords()[:1]
	var buf bytes.Buffer
	writeAll(NewCSVWriter(&buf), recs)
	s := strings.Replace(buf.String(), "10", "xx", 1)
	if _, err := ReadCSV(strings.NewReader(s)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"task\":1}\nnot json\n")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestFromTask(t *testing.T) {
	task := &mgmt.Task{
		ID:  7,
		Req: ops.Request{Kind: ops.KindDeploy, Mode: ops.LinkedClone, Org: "o", Submit: 100},
		End: 130,
		Breakdown: ops.Breakdown{
			Queue: 3, Cell: 1, Mgmt: 2, DB: 1, Host: 4, Data: 19,
		},
		Start: 100,
		Err:   errors.New("nope"),
	}
	r := FromTask(task)
	if r.TaskID != 7 || r.Kind != "deploy" || r.Mode != "linked" || r.Err != "nope" {
		t.Fatalf("record = %+v", r)
	}
	if r.Latency != 30 || r.Submit != 100 || r.End != 130 {
		t.Fatalf("timing = %+v", r)
	}
	bd := r.Breakdown()
	if bd.Total() != 30 {
		t.Fatalf("breakdown total = %v", bd.Total())
	}
	k, err := r.OpKind()
	if err != nil || k != ops.KindDeploy {
		t.Fatalf("kind = %v err %v", k, err)
	}
}

func TestFromTaskNonDeployHasNoMode(t *testing.T) {
	task := &mgmt.Task{Req: ops.Request{Kind: ops.KindPowerOn}}
	if r := FromTask(task); r.Mode != "" {
		t.Fatalf("mode = %q", r.Mode)
	}
}

func TestRecorder(t *testing.T) {
	rc := NewRecorder()
	rc.Sink(&mgmt.Task{ID: 1, Req: ops.Request{Kind: ops.KindPowerOn}})
	rc.Sink(&mgmt.Task{ID: 2, Req: ops.Request{Kind: ops.KindDestroy}})
	if n := len(rc.Records()); n != 2 {
		t.Fatalf("len = %d", n)
	}
	if rc.Records()[1].Kind != "destroy" {
		t.Fatal("order wrong")
	}
}

// Property: both codecs round-trip arbitrary records (restricted to the
// value domains the simulator emits: finite non-negative times, ASCII
// names).
func TestPropertyCodecsRoundTrip(t *testing.T) {
	kinds := ops.Kinds()
	f := func(id int64, kindIdx uint8, times [7]uint32, hasErr bool) bool {
		r := Record{
			TaskID: id,
			Kind:   kinds[int(kindIdx)%len(kinds)].String(),
			Org:    "org",
			Submit: float64(times[0]) / 7, End: float64(times[1]) / 7,
			Latency: float64(times[2]) / 7, Queue: float64(times[3]) / 7,
			Mgmt: float64(times[4]) / 7, Host: float64(times[5]) / 7,
			Data: float64(times[6]) / 7,
		}
		if hasErr {
			r.Err = "some failure, with comma"
		}
		var jbuf, cbuf bytes.Buffer
		if WriteJSONL(&jbuf, []Record{r}) != nil || writeAll(NewCSVWriter(&cbuf), []Record{r}) != nil {
			return false
		}
		jr, err1 := ReadJSONL(&jbuf)
		cr, err2 := ReadCSV(&cbuf)
		if err1 != nil || err2 != nil || len(jr) != 1 || len(cr) != 1 {
			return false
		}
		return jr[0] == r && cr[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
