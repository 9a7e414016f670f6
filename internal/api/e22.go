package api

// Extension experiment E22: the serving surface under load. Each cell
// boots a full stack — cloud, paced driver, REST server on a loopback
// listener — and drives it with the in-package load generator at a
// given (virtual users × pacing ratio × shards) point, measuring
// end-to-end goodput and tail latency *as clients see them*: the
// virtual-time task latency plus the API-layer queue wait, with the
// queueing share split out. This is the measurement the batch
// experiments structurally cannot make — there is no API layer between
// a workload generator and the director when both live inside the
// kernel.
//
// Unlike E1..E21, cells exercise the wall clock (the paced driver holds
// virtual time to it, and live submissions are quantized by real
// arrival), so E22 artifacts are *not* byte-reproducible; they are
// load-test results, like the perf-smoke job, not determinism
// artifacts. E22 lives here rather than internal/core because it
// imports the server; mcpbench -only reaches it through the E22 row.
//
// Cells run serially — each one saturates the host by design, and
// overlapping them would just measure scheduler noise.

import (
	"fmt"
	"io"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
)

// e22QuantumS is the injection quantum of every E22 cell, in virtual
// seconds.
const e22QuantumS = 0.25

// e22Grid is E22's cell grid: management-plane shards × pacing ratio
// (virtual s per wall s) × virtual users, each cell loaded for wallS
// wall seconds with one-VM instantiates.
type e22Grid struct {
	users  []int
	ratios []float64
	shards []int
	wallS  float64
}

var e22 = e22Grid{users: []int{100, 300, 1000}, ratios: []float64{120, 600}, shards: []int{1, 4}, wallS: 4}

// e22Quick is the short two-cell ladder of quick (CI) runs.
var e22Quick = e22Grid{users: []int{25, 100}, ratios: []float64{240}, shards: []int{1}, wallS: 1.5}

// E22 returns the serving-surface experiment's row for mcpbench -only:
// the full grid, or e22Quick at quick scale. Its cells read only
// Params.Seed; a cell lasts wallS wall-clock seconds, not a horizon.
func E22() core.Experiment {
	return core.Experiment{Name: "E22", Run: core.Runner(e22.run), Quick: core.Runner(e22Quick.run)}
}

// E22Result holds the measured grid.
type E22Result struct {
	wallS float64
	Rows  []report.APIRow
}

// run runs the serving-surface load grid.
func (d e22Grid) run(p core.Params) (*E22Result, error) {
	res := &E22Result{wallS: d.wallS}
	for _, shards := range d.shards {
		for _, ratio := range d.ratios {
			for _, users := range d.users {
				row, err := d.cell(p.Seed, users, ratio, shards)
				if err != nil {
					return nil, fmt.Errorf("E22 cell users=%d ratio=%g shards=%d: %w",
						users, ratio, shards, err)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// cell boots one full serving stack and loads it.
func (d e22Grid) cell(seed int64, users int, ratio float64, shards int) (report.APIRow, error) {
	cfg := core.DefaultConfig(seed)
	cfg.Plane.Shards = shards
	st, err := StartStack(cfg, sim.PacedConfig{Ratio: ratio, QuantumS: e22QuantumS},
		core.FrontendConfig{}, "127.0.0.1:0")
	if err != nil {
		return report.APIRow{}, err
	}
	defer st.Cloud.Close()
	load, err := RunLoad(LoadConfig{
		BaseURL:     st.URL,
		Users:       users,
		Duration:    time.Duration(d.wallS * float64(time.Second)),
		Seed:        seed,
		PollInitial: 5 * time.Millisecond,
		PollMax:     100 * time.Millisecond,
	})
	// The load has returned, so the measurement is complete; a slow HTTP
	// shutdown would not change it.
	_ = st.Stop()
	if err != nil {
		return report.APIRow{}, err
	}
	row := load.Row()
	row.MaxLagMS = float64(st.Driver.MaxLag()) / float64(time.Millisecond)
	return row, nil
}

// Render writes the E22 artifact.
func (r *E22Result) Render(w io.Writer) error {
	t := report.APITable(
		fmt.Sprintf("E22: serving surface under load (%gs wall per cell, quantum %gs; wall-clock measurement, not byte-reproducible)",
			r.wallS, e22QuantumS),
		r.Rows)
	if t == nil {
		_, err := fmt.Fprintln(w, "E22: no cells")
		return err
	}
	return t.Render(w)
}
