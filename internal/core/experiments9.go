package core

// Extension experiment E21: the policy tournament. Every decision
// point the management plane makes — placement scoring, DRS move
// selection, HA failover targeting, retry shaping, admission limits —
// is pluggable (package policy), and E21 races named policy sets on
// the sweep engine: a closed-loop provisioning grid over scenario ×
// fault-rate for each policy, plus a failover-storm leg per policy,
// scored on goodput, p99, and induced migration churn. The ranking
// normalizes goodput within each scenario × fault-rate group (so no
// single regime dominates by scale) and is byte-identical across
// worker counts, like every other artifact.
//
// E21 is an opt-in extension like E17..E20: reachable through
// RunExperiment / mcpbench -only E21, never part of the default
// E1..E16 suite, so existing artifacts stay byte-identical.

import (
	"fmt"
	"io"

	"cloudmcp/internal/ha"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// E21Params configures the policy tournament.
type E21Params struct {
	Seed     int64
	HorizonS float64 // per grid point and failover leg
	Workers  int     // sweep pool bound (0 = GOMAXPROCS)
}

// e21StormVMs is the failover leg's fleet size.
const e21StormVMs = 48

// E21Cell is one grid point's outcome.
type E21Cell struct {
	Policy    string
	Scenario  string
	FaultRate float64

	GoodPerHour float64 // successful foreground deploys/hour
	P99S        float64 // foreground deploy p99 latency
	Moves       int64   // DRS + rebalancer migrations issued
	Errors      int     // failed deploys in the window
	GiveUps     int64   // tasks abandoned by the retry policy
}

// E21Failover is one policy's failover-storm leg: a fleet host fails
// mid-run and the set's failover policy replaces the dead capacity
// while foreground provisioning continues.
type E21Failover struct {
	Policy    string
	Affected  int // VMs on the failed host
	Restarted int // VMs HA brought back elsewhere
	Unplaced  int // restarts no surviving host could take

	PostGoodPerHour float64 // foreground deploys/hour after the failure
	PostP99S        float64
}

// E21Result holds the grid, the failover legs, and the final ranking.
type E21Result struct {
	Cells     []E21Cell
	Failovers []E21Failover
	Ranking   []report.PolicyRow
}

// e21Loop is E21's closed-loop leg as data: policy × scenario × fault
// rate. Every point provisions linked clones on uncapped chains and runs
// DRS hot (10% threshold, 2-minute checks) so move policies differ.
// faultRates starts at 0, so each policy's first point, steady and
// fault-free, is also the cloud its failover leg runs on.
type e21Loop struct {
	policies   []string
	faultRates []float64
	clients    int
}

// e21 is the registry's grid.
var e21 = e21Loop{
	policies:   []string{"default", "binpack", "spread", "band", "adaptive-retry"},
	faultRates: []float64{0, 0.15},
	clients:    32,
}

// e21Scenarios is the scenario dimension. "steady" de-bottlenecks the
// data plane — the decision policies, not the spindles, are the
// constraint — and disables the rebalancer; "skewed" keeps the default
// spindles and adds sticky-org placement, so tenants pile onto their
// pinned datastores, storage contention is real, and the rebalancer (on
// a 5-minute check) cleans up behind them.
var e21Scenarios = Dim{Name: "scenario", Levels: []Level{
	{Label: "steady", Sets: []string{"topology.datastoreMBps=4000", "director.rebalanceThreshold=0"}},
	{Label: "skewed", Sets: []string{"director.placement=sticky-org", "director.rebalanceCheckS=300"}},
}}

func (d e21Loop) grid(horizonS float64) Grid {
	rates := Dim{Name: "faults"}
	for _, rate := range d.faultRates {
		set := "faults=null"
		if rate > 0 {
			set = fmt.Sprintf(`faults={"rate":%g}`, rate)
		}
		rates.Levels = append(rates.Levels, Level{Label: fmt.Sprint(rate), Sets: []string{set}})
	}
	return Grid{
		Base:    []string{"director.fastProvisioning=true", "director.maxChainLen=1048576", `drs={"threshold":0.1,"checkS":120,"batch":8}`},
		Dims:    []Dim{Vary("policy", d.policies...), e21Scenarios, rates},
		Clients: d.clients, HorizonS: horizonS, WarmupS: horizonS / 10,
	}
}

// RunE21 races the policy sets over the scenario × fault-rate grid,
// runs one failover-storm leg per policy, and ranks policies by mean
// goodput normalized within each scenario × fault-rate group, so easy
// regimes cannot drown hard ones.
func RunE21(p E21Params) (*E21Result, error) { return e21.run(p) }

func (d e21Loop) run(p E21Params) (*E21Result, error) {
	g := d.grid(p.HorizonS)
	opts := sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}
	rows, err := g.Run(DefaultLoader(p.Seed), opts)
	if err != nil {
		return nil, err
	}
	cells := make([]E21Cell, len(rows))
	for i, row := range rows {
		r := row.Result
		cells[i] = E21Cell{
			Policy: row.Labels[0], Scenario: row.Labels[1], FaultRate: d.faultRates[row.Levels[2]],
			GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS,
			Moves:  r.DRSMoves + r.RebalanceMoves,
			Errors: r.Errors, GiveUps: r.Retry.GiveUps,
		}
	}
	perPolicy := len(rows) / len(d.policies)
	failovers, err := sweep.Run(opts, len(d.policies), func(sp sweep.Point) (E21Failover, error) {
		row := rows[sp.Index*perPolicy]
		fo, err := e21FailoverStorm(row.Config, row.Labels[0], p.HorizonS)
		if err != nil {
			return fo, fmt.Errorf("E21 failover %s: %w", row.Labels[0], err)
		}
		return fo, nil
	})
	if err != nil {
		return nil, err
	}
	return &E21Result{Cells: cells, Failovers: failovers, Ranking: g.RankPolicies(rows)}, nil
}

// e21FailoverStorm deploys a powered-on fleet under one policy set,
// runs foreground deploy→destroy workers throughout, fails the
// busiest host at the half-way mark through an HA engine wired to the
// set's failover policy, and measures foreground service after the
// restart storm.
func e21FailoverStorm(cfg Config, pol string, horizonS float64) (E21Failover, error) {
	c, err := New(cfg)
	if err != nil {
		return E21Failover{}, err
	}
	hcfg := ha.DefaultConfig()
	hcfg.Failover = c.Policy().Failover
	eng, err := ha.New(c.Env(), c.Manager(), hcfg)
	if err != nil {
		return E21Failover{}, err
	}
	H := horizonS
	fo := E21Failover{Policy: pol}
	// 16 foreground clients, measured after the failure.
	runFailoverStorm(c, eng, e21StormVMs, 16, "e21.storm", H, func(rec *ha.Failover) {
		fo.Affected = rec.Affected
		fo.Restarted = rec.Restarted
		fo.Unplaced = rec.Unplaced
	})
	perHour, lat, _ := deployWindow(c, H/2, H)
	fo.PostGoodPerHour = perHour
	fo.PostP99S = lat.Percentile(99)
	return fo, nil
}

// Render writes the tournament grid, the failover legs, and the
// ranking table.
func (r *E21Result) Render(w io.Writer) error {
	gt := report.NewTable("E21: policy tournament over scenario x fault rate",
		"policy", "scenario", "fault rate", "good/h", "p99 s", "moves", "errors", "giveups")
	for _, c := range r.Cells {
		gt.AddRow(c.Policy, c.Scenario, c.FaultRate, c.GoodPerHour, c.P99S, c.Moves, c.Errors, c.GiveUps)
	}
	if err := gt.Render(w); err != nil {
		return err
	}
	ft := report.NewTable("E21: failover storm per policy (steady scenario, busiest host fails at H/2)",
		"policy", "affected", "restarted", "unplaced", "post good/h", "post p99 s")
	for _, f := range r.Failovers {
		ft.AddRow(f.Policy, f.Affected, f.Restarted, f.Unplaced, f.PostGoodPerHour, f.PostP99S)
	}
	if err := ft.Render(w); err != nil {
		return err
	}
	if rt := report.PolicyTable("E21: ranking by mean normalized goodput", r.Ranking); rt != nil {
		return rt.Render(w)
	}
	return nil
}
