package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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

// recorderTasks returns n completed tasks that cycle through every kind
// plus the unknown ops.Kind(99), full and linked clones, four orgs and
// the empty org, with a failure every seventh task.
func recorderTasks(n int) []*mgmt.Task {
	kinds := append(ops.Kinds(), ops.Kind(99))
	orgs := []string{"", "org1", "org2", "org3", "org4"}
	tasks := make([]*mgmt.Task, n)
	for i := range tasks {
		t := &mgmt.Task{
			ID:        int64(i + 1),
			Req:       ops.Request{Kind: kinds[i%len(kinds)], Mode: ops.CloneMode(i / len(kinds) % 2), Org: orgs[i%len(orgs)], Submit: float64(i)},
			Start:     float64(i),
			End:       float64(i) + 1.5,
			Breakdown: ops.Breakdown{Queue: 0.25, Mgmt: float64(i % 3), Host: 1},
		}
		if i%7 == 0 {
			t.Err = fmt.Errorf("failure %d", i)
		}
		tasks[i] = t
	}
	return tasks
}

// TestRecorderBlocks reads the recorder on both sides of its block
// boundaries and after Sinks that follow a read: every read is the
// FromTask list in Sink order, exact-size, and writes the same JSONL.
func TestRecorderBlocks(t *testing.T) {
	tasks := recorderTasks(6000)
	ref := make([]Record, len(tasks))
	for i, task := range tasks {
		ref[i] = FromTask(task)
	}
	seen := map[string]bool{}
	for _, r := range ref {
		seen[r.Kind+"/"+r.Mode] = true
		seen["org="+r.Org] = true
		seen["failed="+strconv.FormatBool(r.Err != "")] = true
	}
	for _, want := range []string{"deploy/full", "deploy/linked", "powerOn/", "op(99)/", "org=", "org=org1", "failed=true", "failed=false"} {
		if !seen[want] {
			t.Fatalf("the reference trace has no %q record", want)
		}
	}

	rc := NewRecorder()
	check := func(n int) []Record {
		t.Helper()
		got := rc.Records()
		if len(got) != n || cap(got) != n {
			t.Fatalf("after %d sinks: len %d cap %d", n, len(got), cap(got))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("after %d sinks: record %d = %+v, want %+v", n, i, got[i], ref[i])
			}
		}
		if !bytes.Equal(jsonl(t, got), jsonl(t, ref[:n])) {
			t.Fatalf("after %d sinks: JSONL differs from the reference", n)
		}
		return got
	}
	var reads [][]Record
	sunk := 0
	// Each read drops the blocks, so the counts fill exactly one block
	// after a read, then start a new one, then fill three, then more.
	for _, n := range []int{1, 1 + blockLen, 2 + blockLen, 2 + 4*blockLen, 2 + 4*blockLen, 6000} {
		for ; sunk < n; sunk++ {
			rc.Sink(tasks[sunk])
		}
		reads = append(reads, check(n))
	}
	// A read with no Sink since the previous one returns the same slice.
	if &reads[3][0] != &reads[4][0] {
		t.Fatal("a second read without new Sinks unpacked again")
	}
	// Later Sinks leave earlier reads intact.
	for _, got := range reads {
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("earlier read of %d records changed at %d", len(got), i)
			}
		}
	}
}

// TestPackedHoldsNoPointers guards the point of the packed layout: a
// block of records the collector need not scan, smaller than Record.
func TestPackedHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(packed{}), "packed")
	if size := unsafe.Sizeof(packed{}); size > 112 {
		t.Errorf("packed is %d bytes, want at most 112", size)
	}
}

func jsonl(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecorderEmptyIsNil(t *testing.T) {
	if got := NewRecorder().Records(); got != nil {
		t.Fatalf("empty recorder returned %v", got)
	}
}

// TestRecorderSinkByteBudget bounds what Sink allocates to 1.25 times
// the packed trace it holds. Growing one slice by append allocates about
// five times the final trace and copies it on every growth, and keeping
// whole Records takes 160/112 of the packed size.
func TestRecorderSinkByteBudget(t *testing.T) {
	const n = 10000
	tasks := make([]*mgmt.Task, n)
	for i := range tasks {
		tasks[i] = &mgmt.Task{ID: int64(i + 1), Req: ops.Request{Kind: ops.KindPowerOn, Submit: float64(i)}, Start: float64(i), End: float64(i) + 1}
	}
	rc := NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, task := range tasks {
		rc.Sink(task)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(1.25 * n * float64(unsafe.Sizeof(packed{})))
	if got > budget {
		t.Fatalf("sinking %d tasks allocated %d bytes, budget %d", n, got, budget)
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

// TestReadersRejectBadTimes feeds both readers a record whose submit or
// end time is negative, NaN or infinite. mcpchar's rate series panics on
// such a time, so the readers must refuse it and name the record.
func TestReadersRejectBadTimes(t *testing.T) {
	const twoLines = `{"task":1,"kind":"deploy","submit":-7200,"end":10,"latency":1,"queue":0,"cell":0,"mgmt":0,"db":0,"host":0,"data":0}
{"task":2,"kind":"deploy","submit":5,"end":10,"latency":5,"queue":0,"cell":0,"mgmt":0,"db":0,"host":0,"data":0}
`
	if _, err := ReadJSONL(strings.NewReader(twoLines)); err == nil || !strings.Contains(err.Error(), "record 0") {
		t.Fatalf("JSONL with submit -7200: err = %v, want one naming record 0", err)
	}
	end := strings.Replace(twoLines, `"submit":5,"end":10`, `"submit":5,"end":-1`, 1)
	end = strings.Replace(end, "-7200", "0", 1)
	if _, err := ReadJSONL(strings.NewReader(end)); err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("JSONL with end -1: err = %v, want one naming record 1", err)
	}

	var buf bytes.Buffer
	if err := writeAll(NewCSVWriter(&buf), sampleRecords()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for _, bad := range []string{"-7200", "NaN", "Inf", "-Inf", "+Inf"} {
		// Row 2 has submit 26 and end 31.
		for _, times := range []string{"," + bad + ",31,", ",26," + bad + ","} {
			s := strings.Replace(good, ",26,31,", times, 1)
			if _, err := ReadCSV(strings.NewReader(s)); err == nil || !strings.Contains(err.Error(), "row 2") {
				t.Fatalf("CSV with times %q: err = %v, want one naming row 2", times, err)
			}
		}
	}
	if _, err := ReadCSV(strings.NewReader(good)); err != nil {
		t.Fatalf("the unmodified CSV: %v", err)
	}
}
