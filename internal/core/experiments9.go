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

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/ha"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sweep"
)

// E21Params configures the policy tournament.
type E21Params struct {
	Seed       int64
	Policies   []string  // named policy sets to race, default {default, binpack, spread, band, adaptive-retry}
	FaultRates []float64 // fault-rate grid, default {0, 0.15}
	Scenarios  []string  // scenario grid, default {steady, skewed}
	Clients    int       // closed-loop foreground workers, default 32
	HorizonS   float64   // per grid point, default 30 min
	WarmupS    float64   // default HorizonS/10
	Workers    int       // sweep pool bound (0 = GOMAXPROCS)
	StormVMs   int       // failover-leg fleet size, default 48
}

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

// e21Scenario builds the cloud config for one (policy, scenario,
// fault-rate) grid point. Both scenarios run DRS hot (10% threshold,
// 2-minute checks) so move policies differ. "steady" de-bottlenecks
// the data plane — the decision policies, not the spindles, are the
// constraint — and disables the rebalancer; "skewed" keeps the default
// spindles and adds sticky-org placement, so tenants pile onto their
// pinned datastores, storage contention is real, and the rebalancer
// (on a 5-minute check) cleans up behind them.
func e21Scenario(seed int64, pol, scenario string, rate float64) (Config, error) {
	cfg := DefaultConfig(seed)
	cfg.Policy = pol
	cfg.Director.FastProvisioning = true
	cfg.Director.MaxChainLen = 1 << 20
	cfg.DRS = drs.Config{Threshold: 0.10, CheckS: 120, Batch: 8}
	switch scenario {
	case "steady":
		cfg.Topology.DatastoreMBps = 4000
		cfg.Director.RebalanceThreshold = 0
	case "skewed":
		cfg.Director.Placement = clouddir.PlaceStickyOrg
		cfg.Director.RebalanceCheckS = 300
	default:
		return Config{}, fmt.Errorf("unknown scenario %q (want steady or skewed)", scenario)
	}
	if rate > 0 {
		fc := faults.Preset(rate)
		cfg.Faults = &fc
	}
	return cfg, nil
}

// RunE21 races the policy sets over the scenario × fault-rate grid,
// runs one failover-storm leg per policy, and ranks policies by mean
// normalized goodput.
func RunE21(p E21Params) (*E21Result, error) {
	if len(p.Policies) == 0 {
		p.Policies = []string{"default", "binpack", "spread", "band", "adaptive-retry"}
	}
	if len(p.FaultRates) == 0 {
		p.FaultRates = []float64{0, 0.15}
	}
	if len(p.Scenarios) == 0 {
		p.Scenarios = []string{"steady", "skewed"}
	}
	if p.Clients == 0 {
		p.Clients = 32
	}
	if p.HorizonS == 0 {
		p.HorizonS = 30 * 60
	}
	if p.WarmupS == 0 {
		p.WarmupS = p.HorizonS / 10
	}
	if p.StormVMs == 0 {
		p.StormVMs = 48
	}

	type combo struct {
		pol, scenario string
		rate          float64
	}
	var combos []combo
	for _, pol := range p.Policies {
		for _, sc := range p.Scenarios {
			for _, r := range p.FaultRates {
				combos = append(combos, combo{pol: pol, scenario: sc, rate: r})
			}
		}
	}
	cells, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(combos),
		func(sp sweep.Point) (E21Cell, error) {
			cb := combos[sp.Index]
			cfg, err := e21Scenario(p.Seed, cb.pol, cb.scenario, cb.rate)
			if err != nil {
				return E21Cell{}, err
			}
			r, err := RunClosedLoop(cfg, p.Clients, p.HorizonS, p.WarmupS)
			if err != nil {
				return E21Cell{}, fmt.Errorf("E21 %s/%s/%g: %w", cb.pol, cb.scenario, cb.rate, err)
			}
			return E21Cell{
				Policy: cb.pol, Scenario: cb.scenario, FaultRate: cb.rate,
				GoodPerHour: r.DeploysPerHour, P99S: r.P99LatencyS,
				Moves:  r.DRSMoves + r.RebalanceMoves,
				Errors: r.Errors, GiveUps: r.Retry.GiveUps,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	failovers, err := sweep.Run(sweep.Options{MasterSeed: p.Seed, Workers: p.Workers}, len(p.Policies),
		func(sp sweep.Point) (E21Failover, error) {
			fo, err := e21FailoverStorm(p, p.Policies[sp.Index])
			if err != nil {
				return E21Failover{}, fmt.Errorf("E21 failover %s: %w", p.Policies[sp.Index], err)
			}
			return fo, nil
		})
	if err != nil {
		return nil, err
	}
	// Goodput is normalized within each scenario × fault-rate group, so
	// easy regimes cannot drown hard ones.
	results := make([]report.PolicyResult, len(cells))
	for i, c := range cells {
		results[i] = report.PolicyResult{
			Policy: c.Policy, Group: fmt.Sprintf("%s\x00%v", c.Scenario, c.FaultRate),
			GoodPerHour: c.GoodPerHour, P99S: c.P99S, Moves: c.Moves, Errors: c.Errors,
		}
	}
	return &E21Result{Cells: cells, Failovers: failovers, Ranking: report.RankPolicies(p.Policies, results)}, nil
}

// e21FailoverStorm deploys a powered-on fleet under one policy set,
// runs foreground deploy→destroy workers throughout, fails the
// busiest host at the half-way mark through an HA engine wired to the
// set's failover policy, and measures foreground service after the
// restart storm.
func e21FailoverStorm(p E21Params, pol string) (E21Failover, error) {
	cfg, err := e21Scenario(p.Seed, pol, "steady", 0)
	if err != nil {
		return E21Failover{}, err
	}
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
	H := p.HorizonS
	fo := E21Failover{Policy: pol}
	// 16 foreground clients, measured after the failure.
	runFailoverStorm(c, eng, p.StormVMs, 16, "e21.storm", H, func(rec *ha.Failover) {
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
