// Package trace defines the management-operation trace format the
// characterization pipeline consumes: one flat record per completed task,
// serializable as JSON lines or CSV so traces can be generated once
// (cmd/mcpgen) and analyzed separately (cmd/mcpchar), mirroring how the
// paper's measurements were collected from live systems and studied
// offline.
//
// A Recorder keeps records packed: the numbers as they are, each string
// as an index into a per-recorder table. A packed record holds no
// pointers, so the collector never scans a trace kept in memory.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
)

// Record is one completed management operation.
type Record struct {
	TaskID int64  `json:"task"`
	Kind   string `json:"kind"`
	Mode   string `json:"mode,omitempty"` // deploys only: full|linked
	Org    string `json:"org,omitempty"`

	// VM and Template reference the operation's targets by inventory ID
	// (0 when not applicable). IDs are only meaningful within the run
	// that produced the trace; the replayer maps them structurally.
	VM       int64 `json:"vm,omitempty"`
	Template int64 `json:"template,omitempty"`

	Submit float64 `json:"submit"` // virtual seconds
	End    float64 `json:"end"`

	Latency float64 `json:"latency"`
	Queue   float64 `json:"queue"`
	Cell    float64 `json:"cell"`
	Mgmt    float64 `json:"mgmt"`
	DB      float64 `json:"db"`
	Host    float64 `json:"host"`
	Data    float64 `json:"data"`

	Err string `json:"err,omitempty"`
}

// Breakdown reassembles the record's latency breakdown.
func (r Record) Breakdown() ops.Breakdown {
	return ops.Breakdown{Queue: r.Queue, Cell: r.Cell, Mgmt: r.Mgmt, DB: r.DB, Host: r.Host, Data: r.Data}
}

// OpKind parses the record's kind.
func (r Record) OpKind() (ops.Kind, error) { return ops.ParseKind(r.Kind) }

// FromTask flattens a completed task into a record.
func FromTask(t *mgmt.Task) Record {
	r := Record{
		TaskID:   t.ID,
		Kind:     t.Req.Kind.String(),
		Org:      t.Req.Org,
		VM:       int64(t.Req.VMID),
		Template: int64(t.Req.TemplateID),
		Submit:   t.Req.Submit,
		End:      float64(t.End),
		Latency:  t.Latency(),
		Queue:    t.Breakdown.Queue,
		Cell:     t.Breakdown.Cell,
		Mgmt:     t.Breakdown.Mgmt,
		DB:       t.Breakdown.DB,
		Host:     t.Breakdown.Host,
		Data:     t.Breakdown.Data,
	}
	if t.Req.Kind == ops.KindDeploy {
		r.Mode = t.Req.Mode.String()
	}
	if t.Err != nil {
		r.Err = t.Err.Error()
	}
	return r
}

// blockLen is the number of records in one of the recorder's blocks.
// A larger block leaves more unused capacity in the last one, which shows
// in a short run's heap; a smaller one costs more allocations per record.
const blockLen = 1024

// Recorder is a task sink that accumulates records in memory. Register
// Sink with mgmt.Manager.AddTaskSink.
//
// Sink stores each record packed, in blocks of blockLen records. It
// fills the last block and starts a new one when it is full, so a growing
// trace costs one allocation per block and never copies the records
// before it. Records unpacks the records sunk since the previous read
// onto a copy of the slice that read returned, and drops the blocks, so a
// read after the run does not hold the trace twice.
type Recorder struct {
	blocks [][]packed
	flat   []Record // what the last Records returned

	strs  []string          // the string table; strs[0] is ""
	index map[string]uint32 // a string's index in strs
}

// packed is a Record with each string replaced by its index in the
// recorder's string table: 112 bytes against Record's 160. It holds no
// pointers, so the garbage collector never scans a block of them.
type packed struct {
	task, vm, template                                      int64
	submit, end, latency, queue, cell, mgmt, db, host, data float64
	kind, mode, org, err                                    uint32
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{strs: []string{""}, index: map[string]uint32{}} }

// intern returns s's index in the string table, adding it on first sight.
func (rc *Recorder) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	i, ok := rc.index[s]
	if !ok {
		i = uint32(len(rc.strs))
		rc.index[s] = i
		rc.strs = append(rc.strs, s)
	}
	return i
}

// Sink appends the task's record.
func (rc *Recorder) Sink(t *mgmt.Task) {
	n := len(rc.blocks)
	if n == 0 || len(rc.blocks[n-1]) == blockLen {
		rc.blocks = append(rc.blocks, make([]packed, 0, blockLen))
		n++
	}
	r := FromTask(t)
	rc.blocks[n-1] = append(rc.blocks[n-1], packed{
		task: r.TaskID, vm: r.VM, template: r.Template,
		submit: r.Submit, end: r.End, latency: r.Latency, queue: r.Queue,
		cell: r.Cell, mgmt: r.Mgmt, db: r.DB, host: r.Host, data: r.Data,
		kind: rc.intern(r.Kind), mode: rc.intern(r.Mode),
		org: rc.intern(r.Org), err: rc.intern(r.Err),
	})
}

// Records returns the accumulated records in Sink order, or nil when
// there are none. The slice is shared: callers must not mutate it. Its
// capacity equals its length, so appending to it copies rather than
// writing into the recorder.
func (rc *Recorder) Records() []Record {
	if len(rc.blocks) == 0 {
		return rc.flat
	}
	n := len(rc.flat)
	for _, b := range rc.blocks {
		n += len(b)
	}
	flat := append(make([]Record, 0, n), rc.flat...)
	for _, b := range rc.blocks {
		for i := range b {
			p := &b[i]
			flat = append(flat, Record{
				TaskID: p.task, Kind: rc.strs[p.kind], Mode: rc.strs[p.mode],
				Org: rc.strs[p.org], VM: p.vm, Template: p.template,
				Submit: p.submit, End: p.end, Latency: p.latency, Queue: p.queue,
				Cell: p.cell, Mgmt: p.mgmt, DB: p.db, Host: p.host, Data: p.data,
				Err: rc.strs[p.err],
			})
		}
	}
	rc.flat, rc.blocks = flat, nil
	return flat
}

// checkTimes rejects a submit or end time that is negative, NaN or
// infinite: no run produces one, and the analyses bin records by time.
func checkTimes(r *Record) error {
	for _, t := range [2]float64{r.Submit, r.End} {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("time %v is not finite and non-negative", t)
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per line.
func WriteJSONL(w io.Writer, records []Record) error {
	return writeAll(NewJSONLWriter(w), records)
}

// ReadJSONL reads records written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode record %d: %w", len(out), err)
		}
		if err := checkTimes(&rec); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

var csvHeader = []string{
	"task", "kind", "mode", "org", "vm", "template", "submit", "end",
	"latency", "queue", "cell", "mgmt", "db", "host", "data", "err",
}

// writeAll writes every record through sw, then flushes it.
func writeAll(sw *Writer, records []Record) error {
	for i := range records {
		if err := sw.Write(&records[i]); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// Writer streams records one at a time to an underlying writer, buffered,
// in JSONL or CSV form. WriteJSONL is a loop over it, so a CLI can
// switch from accumulate-then-dump to streaming without changing its
// artifact.
// Errors are sticky: after the first failure every Write is a no-op and
// Flush reports it, so a caller checking only the final Flush still
// observes a mid-stream disk failure.
type Writer struct {
	enc *json.Encoder // JSONL mode
	bw  *bufio.Writer // JSONL mode (enc's buffer)
	cw  *csv.Writer   // CSV mode
	hdr bool          // CSV header written
	row [16]string    // CSV scratch, reused per record
	n   int
	err error
}

func (sw *Writer) csvHeaderOnce() error {
	if sw.hdr {
		return nil
	}
	if err := sw.cw.Write(csvHeader); err != nil {
		sw.err = err
		return err
	}
	sw.hdr = true
	return nil
}

// NewJSONLWriter returns a streaming writer producing WriteJSONL output.
func NewJSONLWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{enc: json.NewEncoder(bw), bw: bw}
}

// NewCSVWriter returns a streaming writer producing CSV with a header
// row (written lazily, at the first record or at Flush, so a zero-record
// stream still carries the header).
func NewCSVWriter(w io.Writer) *Writer {
	return &Writer{cw: csv.NewWriter(w)}
}

// Write appends one record. It returns the writer's sticky error.
func (sw *Writer) Write(r *Record) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.enc != nil {
		if err := sw.enc.Encode(r); err != nil {
			sw.err = fmt.Errorf("trace: encode record %d: %w", sw.n, err)
			return sw.err
		}
	} else {
		if err := sw.csvHeaderOnce(); err != nil {
			return err
		}
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		row := sw.row[:0]
		row = append(row,
			strconv.FormatInt(r.TaskID, 10), r.Kind, r.Mode, r.Org,
			strconv.FormatInt(r.VM, 10), strconv.FormatInt(r.Template, 10),
			f(r.Submit), f(r.End), f(r.Latency), f(r.Queue), f(r.Cell),
			f(r.Mgmt), f(r.DB), f(r.Host), f(r.Data), r.Err)
		if err := sw.cw.Write(row); err != nil {
			sw.err = fmt.Errorf("trace: write record %d: %w", sw.n, err)
			return sw.err
		}
	}
	sw.n++
	return nil
}

// Sink adapts Write to the mgmt task-sink signature, for streaming a
// simulation's completed tasks straight to disk. Write errors are sticky
// and surface at Flush.
func (sw *Writer) Sink(t *mgmt.Task) {
	rec := FromTask(t)
	sw.Write(&rec)
}

// N returns the number of records written so far.
func (sw *Writer) N() int { return sw.n }

// Flush drains buffered output and returns the first error seen, if any.
func (sw *Writer) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.enc != nil {
		sw.err = sw.bw.Flush()
	} else {
		if err := sw.csvHeaderOnce(); err != nil {
			return err
		}
		sw.cw.Flush()
		sw.err = sw.cw.Error()
	}
	return sw.err
}

// ReadCSV reads records written by NewCSVWriter.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "task" {
		return nil, fmt.Errorf("trace: unexpected csv header %v", rows[0])
	}
	out := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		var rec Record
		var errs [13]error
		rec.TaskID, errs[0] = strconv.ParseInt(row[0], 10, 64)
		rec.Kind, rec.Mode, rec.Org = row[1], row[2], row[3]
		rec.VM, errs[1] = strconv.ParseInt(row[4], 10, 64)
		rec.Template, errs[2] = strconv.ParseInt(row[5], 10, 64)
		rec.Submit, errs[3] = strconv.ParseFloat(row[6], 64)
		rec.End, errs[4] = strconv.ParseFloat(row[7], 64)
		rec.Latency, errs[5] = strconv.ParseFloat(row[8], 64)
		rec.Queue, errs[6] = strconv.ParseFloat(row[9], 64)
		rec.Cell, errs[7] = strconv.ParseFloat(row[10], 64)
		rec.Mgmt, errs[8] = strconv.ParseFloat(row[11], 64)
		rec.DB, errs[9] = strconv.ParseFloat(row[12], 64)
		rec.Host, errs[10] = strconv.ParseFloat(row[13], 64)
		rec.Data, errs[11] = strconv.ParseFloat(row[14], 64)
		rec.Err = row[15]
		errs[12] = checkTimes(&rec)
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("trace: csv row %d: %v", i+1, e)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}
