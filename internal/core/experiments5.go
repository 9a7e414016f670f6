package core

// Extension experiment E17: control-plane goodput under injected
// faults. The predecessor work (and the reliability literature around
// it) argues that failures and retries are first-class management load;
// E17 measures it directly. A closed-loop deploy workload runs against
// clouds with increasing transient-fault rates (package faults) and the
// manager's retry policy turns every injected failure into repeated
// admission/thread/DB/lock work — so goodput (successful deploys/hour)
// falls faster than the fault rate alone explains, and tail latency
// grows with retry backoff. A second leg re-runs the E16 restart storm
// against an already-faulty control plane: recovery time stretches
// exactly when failures are already rampant.
//
// E17 is an opt-in extension: it is reachable through RunExperiment /
// mcpbench -only E17, but not part of the default
// E1..E16 suite, so pre-faults artifacts stay byte-identical.

import (
	"fmt"
	"io"

	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// E17Params configures the goodput-under-faults experiment.
type E17Params struct {
	Seed     int64
	HorizonS float64 // per closed-loop point and storm
	Workers  int     // sweep pool bound (0 = GOMAXPROCS)
}

// e17StormRatePerHour is the storm leg's background load.
const e17StormRatePerHour = 2000.0

// e17Storm is the storm leg: the E16 grid at e17StormRatePerHour, run at
// each fault rate with a faults.rate base.
var e17Storm = e16Storm{rates: []float64{e17StormRatePerHour}, hostVMs: e16.hostVMs}

// e17Loop is E17's closed-loop leg as data: fault rate × provisioning
// mode (full, then linked clones) with rebalancing off to isolate
// provisioning. Every point enables fault injection, and with it the
// default retry policy.
type e17Loop struct {
	rates   []float64
	clients int
}

// e17 is the registry's grid: four fault rates at the E6 crossover's 32
// clients.
var e17 = e17Loop{rates: []float64{0, 0.05, 0.1, 0.2}, clients: 32}

func (d e17Loop) grid(horizonS float64) Grid {
	return Grid{
		Base:    []string{"director.rebalanceThreshold=0"},
		Dims:    []Dim{Vary("faults.rate", d.rates...), Vary("director.fastProvisioning", false, true)},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// E17Mode is one provisioning mode's outcome at one fault rate.
type E17Mode struct {
	GoodPerHour   float64 // successful deploys/hour in the window
	P99S          float64 // deploy p99 latency in the window
	Amplification float64 // attempts per task, whole run
	GiveUps       int64   // tasks abandoned by the retry policy, whole run
}

// E17Point is one fault rate's closed-loop outcome, full vs linked.
type E17Point struct {
	Rate         float64
	Full, Linked E17Mode

	// goodput holds the linked-clone per-kind rows; rendered for the
	// highest swept rate.
	goodput []mgmt.GoodputRow

	// Storm is the E16 restart-storm leg at this fault rate.
	Storm E16Point
}

// E17Result holds the sweep.
type E17Result struct{ Points []E17Point }

// RunE17 runs the fault-rate grid in both provisioning modes, then one
// restart storm per fault rate.
func RunE17(p E17Params) (*E17Result, error) { return e17.run(p) }

func (d e17Loop) run(p E17Params) (*E17Result, error) {
	opts := sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}
	rows, err := d.grid(p.HorizonS).Run(DefaultLoader(p.Seed), opts)
	if err != nil {
		return nil, err
	}
	mode := func(r ClosedLoopResult) E17Mode {
		m := E17Mode{GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS, GiveUps: r.Retry.GiveUps}
		var tasks, attempts int64
		for _, row := range r.Goodput {
			tasks += row.Tasks
			attempts += row.Attempts
		}
		if tasks > 0 {
			m.Amplification = float64(attempts) / float64(tasks)
		}
		return m
	}
	points, err := sweep.Run(opts, len(d.rates), func(sp sweep.Point) (E17Point, error) {
		rate := d.rates[sp.Index]
		storm, err := e17Storm.run(p.Seed, p.HorizonS, sweep.Options{MasterSeed: p.Seed, Workers: 1}, fmt.Sprintf("faults.rate=%v", rate))
		if err != nil {
			return E17Point{}, err
		}
		full, linked := rows[2*sp.Index].Result, rows[2*sp.Index+1].Result
		return E17Point{Rate: rate, Full: mode(full), Linked: mode(linked), goodput: linked.Goodput, Storm: storm[0]}, nil
	})
	if err != nil {
		return nil, err
	}
	return &E17Result{Points: points}, nil
}

// Render writes the goodput table, the per-kind goodput breakdown at the
// highest fault rate, and the storm table.
func (r *E17Result) Render(w io.Writer) error {
	t := report.NewTable("E17: closed-loop deploy goodput vs injected fault rate",
		"fault rate", "full good/h", "full p99 s", "full amp", "linked good/h", "linked p99 s", "linked amp", "giveups")
	for _, pt := range r.Points {
		t.AddRow(pt.Rate, pt.Full.GoodPerHour, pt.Full.P99S, pt.Full.Amplification,
			pt.Linked.GoodPerHour, pt.Linked.P99S, pt.Linked.Amplification,
			pt.Full.GiveUps+pt.Linked.GiveUps)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if n := len(r.Points); n > 0 {
		last := r.Points[n-1]
		if gt := report.GoodputTable(goodputRows(last.goodput)); gt != nil {
			gt.Title = fmt.Sprintf("E17: linked-clone goodput by operation at fault rate %.2f", last.Rate)
			if err := gt.Render(w); err != nil {
				return err
			}
		}
	}
	st := report.NewTable(
		fmt.Sprintf("E17: HA restart storm on a faulty control plane (%.0f req/h)", e17StormRatePerHour),
		"fault rate", "recovery s", "restarted", "unplaced", "bg deploys done")
	for _, pt := range r.Points {
		st.AddRow(pt.Rate, pt.Storm.RecoveryS, pt.Storm.Restarted, pt.Storm.Unplaced, pt.Storm.DeploysDone)
	}
	return st.Render(w)
}

// goodputRows adapts the manager's per-kind goodput accounting to the
// report renderer's layer-agnostic rows.
func goodputRows(rows []mgmt.GoodputRow) []report.GoodputRow {
	out := make([]report.GoodputRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.GoodputRow{
			Kind:     r.Kind.String(),
			Tasks:    r.Tasks,
			OK:       r.OK,
			Attempts: r.Attempts,
			GiveUps:  r.GiveUps,
		})
	}
	return out
}
