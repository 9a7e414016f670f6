package core

import (
	"fmt"
	"strings"
	"testing"

	"cloudmcp/internal/analysis"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/workload"
)

// drsConfigForTest is an aggressive balancer so short runs see passes.
func drsConfigForTest() drs.Config {
	return drs.Config{Threshold: 0.05, CheckS: 300, Batch: 8}
}

func TestNewBuildsTopology(t *testing.T) {
	cfg := DefaultConfig(1)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inventory()
	if n := len(inv.Hosts()); n != cfg.Topology.Hosts {
		t.Fatalf("hosts = %d", n)
	}
	if n := len(inv.Datastores()); n != cfg.Topology.Datastores {
		t.Fatalf("datastores = %d", n)
	}
	if n := len(inv.Templates()); n != cfg.Topology.Templates {
		t.Fatalf("templates = %d", n)
	}
	if err := c.Inventory().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadTopologyRejected(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Topology.Hosts = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected topology error")
	}
	cfg = DefaultConfig(1)
	cfg.Topology.Templates = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected template error")
	}
}

// A negative lease or org quota is an error, not leases off or an
// unlimited quota: the scenario loads, and building the cloud fails.
func TestNegativeLeaseAndQuotaRejected(t *testing.T) {
	for _, src := range []string{`{"director": {"leaseS": -1}}`, `{"director": {"orgQuotaVMs": -1}}`} {
		cfg, err := LoadConfig(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "clouddir: negative") {
			t.Fatalf("%s: err = %v, want the director to reject it", src, err)
		}
	}
}

// A shard owns at least one host, whether the Config came from Go code,
// a scenario file, or -set overrides.
func TestShardsExceedingHostsRejected(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Topology.Hosts = 4
	cfg.Plane.Shards = 4
	if _, err := New(cfg); err != nil {
		t.Fatalf("one host per shard: %v", err)
	}
	cfg.Plane.Shards = 8
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "a shard needs at least one host") {
		t.Fatalf("8 shards on 4 hosts: err = %v", err)
	}
	cfg, err := LoadConfig(strings.NewReader(`{"topology": {"hosts": 4}, "plane": {"shards": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("scenario with 8 shards on 4 hosts built")
	}
}

// Validate runs every check New runs and builds nothing: for each
// config, one bad value per check (and a few with two, where the first
// in New's order must win), Validate and New return the same error.
// The configs that pass show Validate applying what New derives first:
// the admission policy's in-flight limit, the policy set's retry, a
// zero Plane block and the reconcile defaults.
func TestValidateMatchesNew(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"no hosts", func(c *Config) { c.Topology.Hosts = 0 }, false},
		{"no templates and unknown policy", func(c *Config) { c.Topology.Templates = 0; c.Policy = "nope" }, false},
		{"unknown policy", func(c *Config) { c.Policy = "nope" }, false},
		{"fault probability above 1", func(c *Config) { c.Faults = &faults.Config{Host: faults.Layer{FailProb: 2}} }, false},
		{"bad faults and too many shards", func(c *Config) {
			c.Faults = &faults.Config{DB: faults.Layer{FailProb: -1}}
			c.Plane.Shards = 64
		}, false},
		{"shards exceed hosts", func(c *Config) { c.Plane.Shards = 64 }, false},
		{"no shards", func(c *Config) { c.Plane.Shards = -1 }, false},
		{"unknown db mode", func(c *Config) { c.Plane.DB = "bogus" }, false},
		{"zero plane block", func(c *Config) { c.Plane = plane.Config{} }, true},
		{"no threads", func(c *Config) { c.Mgmt.Threads = 0 }, false},
		{"negative retry", func(c *Config) { c.Mgmt.Retry.BaseBackoff = -1 }, false},
		{"faults with the policy's retry", func(c *Config) {
			c.Faults = &faults.Config{Host: faults.Layer{FailProb: 0.1}}
			c.Policy = "eager-retry"
		}, true},
		{"WAL database without connections", func(c *Config) { c.Mgmt.Database = &mgmtdb.Config{FlushS: 0.02} }, false},
		{"no in-flight limit", func(c *Config) { c.Mgmt.MaxInFlight = 0 }, false},
		{"no in-flight limit, sized by hosts", func(c *Config) { c.Mgmt.MaxInFlight = 0; c.Policy = "host-admission" }, true},
		{"negative cost", func(c *Config) {
			c.Model = ops.DefaultCostModel()
			c.Model.CV = -1
		}, false},
		{"no cells", func(c *Config) { c.Director.Cells = 0 }, false},
		{"negative lease and no threads", func(c *Config) { c.Director.LeaseS = -1; c.Mgmt.Threads = 0 }, false},
		{"DRS without a period", func(c *Config) { c.DRS = drs.Config{Threshold: 0.2, Batch: 4} }, false},
		{"unknown controller", func(c *Config) { c.Reconcile = &reconcile.Config{Controllers: []string{"nope"}} }, false},
		{"bare reconcile literal", func(c *Config) { c.Reconcile = &reconcile.Config{Controllers: []string{reconcile.ControllerDrift}} }, true},
		{"reconcile without an interval", func(c *Config) {
			rc := reconcile.DefaultConfig()
			rc.Controllers, rc.IntervalS = []string{reconcile.ControllerDrift}, 0
			c.Reconcile = &rc
		}, false},
	} {
		cfg := DefaultConfig(1)
		tc.edit(&cfg)
		verr := cfg.Validate()
		c, nerr := New(cfg)
		if c != nil {
			c.Close()
		}
		if (verr == nil) != tc.ok || fmt.Sprint(verr) != fmt.Sprint(nerr) {
			t.Errorf("%s: Validate = %v, New = %v; want the same, nil exactly when %v", tc.name, verr, nerr, tc.ok)
		}
	}
}

func TestRunProfileCollectsTrace(t *testing.T) {
	c, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunProfile(workload.CloudA(), 2*Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if len(c.Records()) == 0 {
		t.Fatal("no records")
	}
}

func TestRecordDisabled(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Record = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunProfile(workload.CloudA(), Hour); err != nil {
		t.Fatal(err)
	}
	if c.Records() != nil {
		t.Fatal("records collected while disabled")
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	run := func() (int, float64) {
		c, err := New(DefaultConfig(42))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), 2*Hour); err != nil {
			t.Fatal(err)
		}
		recs := c.Records()
		last := 0.0
		if len(recs) > 0 {
			last = recs[len(recs)-1].End
		}
		return len(recs), last
	}
	n1, l1 := run()
	n2, l2 := run()
	if n1 != n2 || l1 != l2 {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", n1, l1, n2, l2)
	}
}

func TestE1MixShapes(t *testing.T) {
	r, err := RunE1(Params{Seed: 5, HorizonS: 3 * Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) != 3 {
		t.Fatalf("profiles = %v", r.Profiles)
	}
	// CloudA must be far busier than ClassicDC.
	if r.Total["CloudA"] < 5*r.Total["ClassicDC"] {
		t.Fatalf("CloudA %d not ≫ ClassicDC %d", r.Total["CloudA"], r.Total["ClassicDC"])
	}
	out := r.Table().String()
	if !strings.Contains(out, "deploy") || !strings.Contains(out, "total") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func TestE2Burstiness(t *testing.T) {
	r, err := RunE2(Params{Seed: 5, HorizonS: 6 * Hour})
	if err != nil {
		t.Fatal(err)
	}
	var cloudB *E2Profile
	for i := range r.Profiles {
		if r.Profiles[i].Name == "CloudB" {
			cloudB = &r.Profiles[i]
		}
	}
	if cloudB == nil {
		t.Fatal("CloudB missing")
	}
	// Session batches make CloudB strongly bursty at 10-minute bins.
	if cloudB.Burstiness.PeakToMean < 2 {
		t.Fatalf("CloudB peak:mean = %v, want bursty", cloudB.Burstiness.PeakToMean)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "burstiness") {
		t.Fatal("render missing burstiness table")
	}
}

func TestE3CDFMonotone(t *testing.T) {
	r, err := RunE3(Params{Seed: 5, HorizonS: 4 * Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Profiles {
		for i := 1; i < len(p.CDF); i++ {
			if p.CDF[i].X < p.CDF[i-1].X {
				t.Fatalf("%s CDF not monotone", p.Name)
			}
		}
	}
}

// DeployControlShare returns the mean control share of successful deploys
// for the given mode.
func (r *E4Result) DeployControlShare(mode string) (float64, bool) {
	for _, m := range r.Modes {
		if m.Mode != mode {
			continue
		}
		for _, row := range m.Rows {
			if row.Kind == ops.KindDeploy.String() {
				return analysis.ControlShare(row.MeanBreakdown), true
			}
		}
	}
	return 0, false
}

func TestE4LinkedShiftsCostToControlPlane(t *testing.T) {
	r, err := RunE4(Params{Seed: 5, HorizonS: 2 * Hour})
	if err != nil {
		t.Fatal(err)
	}
	fullShare, ok1 := r.DeployControlShare("full")
	linkedShare, ok2 := r.DeployControlShare("linked")
	if !ok1 || !ok2 {
		t.Fatalf("missing deploy rows (ok=%v,%v)", ok1, ok2)
	}
	// The paper's central claim in miniature: control-plane share of
	// deploy latency is small for full clones and dominant for linked.
	if fullShare > 0.5 {
		t.Fatalf("full-clone control share = %v, want < 0.5", fullShare)
	}
	if linkedShare < 0.5 {
		t.Fatalf("linked-clone control share = %v, want > 0.5", linkedShare)
	}
}

func TestE5LatencyScalesWithSizeOnlyForFull(t *testing.T) {
	r, err := e5Sweep{sizesGB: []float64{2, 32}}.run(Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	small, big := r.Points[0], r.Points[1]
	if big.FullS < 4*small.FullS {
		t.Fatalf("full: %v -> %v, want ~16x growth", small.FullS, big.FullS)
	}
	if big.LinkedS > 2*small.LinkedS {
		t.Fatalf("linked: %v -> %v, want ~flat", small.LinkedS, big.LinkedS)
	}
	if big.FullS < 5*big.LinkedS {
		t.Fatalf("at 32GB full %v not ≫ linked %v", big.FullS, big.LinkedS)
	}
}

func TestE6LinkedScalesPastFull(t *testing.T) {
	r, err := e6Sweep{clients: []int{1, 16}}.run(Params{Seed: 5, HorizonS: 900})
	if err != nil {
		t.Fatal(err)
	}
	p1, p16 := r.Points[0], r.Points[1]
	if p16.LinkedPerHour <= p16.FullPerHour {
		t.Fatalf("at 16 workers linked %v not > full %v", p16.LinkedPerHour, p16.FullPerHour)
	}
	if p16.LinkedPerHour <= 2*p1.LinkedPerHour {
		t.Fatalf("linked did not scale: %v -> %v", p1.LinkedPerHour, p16.LinkedPerHour)
	}
	if r.PeakThroughput(true) <= r.PeakThroughput(false) {
		t.Fatal("peak linked throughput must exceed full")
	}
}

func TestE7QueueShareGrowsWithLoad(t *testing.T) {
	r, err := loadSweep{rates: []float64{500, 5000}}.e7(Params{Seed: 5, HorizonS: 1200})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Points[0], r.Points[1]
	loQ := lo.Breakdown.Queue
	hiQ := hi.Breakdown.Queue
	if hiQ <= loQ {
		t.Fatalf("queue time did not grow with load: %v -> %v", loQ, hiQ)
	}
	if hi.MeanLatS <= lo.MeanLatS {
		t.Fatalf("latency did not grow with load: %v -> %v", lo.MeanLatS, hi.MeanLatS)
	}
}

func TestE8ReconfigPressureGrowsWithRate(t *testing.T) {
	r, err := e8Sweep{rates: []float64{60, 480}, maxChainLen: 4}.run(Params{Seed: 5, HorizonS: 1800})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Points[0], r.Points[1]
	if hi.ShadowsPerHour <= lo.ShadowsPerHour {
		t.Fatalf("shadows/h did not grow: %v -> %v", lo.ShadowsPerHour, hi.ShadowsPerHour)
	}
	if hi.RebalStartsPerH == 0 || hi.MovesPerHour == 0 {
		t.Fatalf("no rebalance activity at high rate: %+v", hi)
	}
	// At high rate the rebalancer lags the provisioning stream: the
	// residual imbalance grows with rate even while rebalancing runs.
	if hi.EndImbalance <= lo.EndImbalance {
		t.Fatalf("residual imbalance did not grow: %v -> %v", lo.EndImbalance, hi.EndImbalance)
	}
}

func TestE9UtilizationGrowsWithLoad(t *testing.T) {
	r, err := loadSweep{rates: []float64{500, 5000}}.e9(Params{Seed: 5, HorizonS: 1200})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Points[0], r.Points[1]
	if hi.Threads.Utilization <= lo.Threads.Utilization {
		t.Fatalf("thread util did not grow: %v -> %v", lo.Threads.Utilization, hi.Threads.Utilization)
	}
	if hi.DB.Utilization <= lo.DB.Utilization {
		t.Fatalf("db util did not grow: %v -> %v", lo.DB.Utilization, hi.DB.Utilization)
	}
}

func TestE10MoreCellsMoreThroughput(t *testing.T) {
	r, err := e10Sweep{cells: []int{1, 4}, clients: 48}.run(Params{Seed: 5, HorizonS: 900})
	if err != nil {
		t.Fatal(err)
	}
	if r.Points[1].LinkedPerHour <= r.Points[0].LinkedPerHour {
		t.Fatalf("cells 4 (%v) not > cells 1 (%v)",
			r.Points[1].LinkedPerHour, r.Points[0].LinkedPerHour)
	}
}

func TestE11FinerLocksMoreThroughput(t *testing.T) {
	r, err := e11Sweep{clients: 32}.run(Params{Seed: 5, HorizonS: 900})
	if err != nil {
		t.Fatal(err)
	}
	byG := map[string]float64{}
	for _, pt := range r.Points {
		byG[pt.Granularity] = pt.LinkedPerHour
	}
	if byG["entity"] <= byG["coarse"] {
		t.Fatalf("entity (%v) not > coarse (%v)", byG["entity"], byG["coarse"])
	}
	if byG["host"] < byG["coarse"] {
		t.Fatalf("host (%v) below coarse (%v)", byG["host"], byG["coarse"])
	}
}

func TestE12PublishAmplifiedUnderFullLoadOnly(t *testing.T) {
	r, err := e12Sweep{sizesGB: []float64{8}, clients: 32}.run(Params{Seed: 5, HorizonS: 900})
	if err != nil {
		t.Fatal(err)
	}
	pt := r.Points[0]
	if pt.IdleS <= 0 || pt.FullLoadS <= 0 || pt.LinkedLoadS <= 0 {
		t.Fatalf("missing publishes: %+v", pt)
	}
	// Full-clone provisioning load contends on datastore bandwidth and
	// visibly slows the publish; linked-clone load barely touches it.
	if pt.FullLoadS < 1.5*pt.IdleS {
		t.Fatalf("full-load publish %v not ≫ idle %v", pt.FullLoadS, pt.IdleS)
	}
	if pt.LinkedLoadS >= pt.FullLoadS {
		t.Fatalf("linked-load publish %v not < full-load %v", pt.LinkedLoadS, pt.FullLoadS)
	}
	if pt.FullDeploys == 0 || pt.LinkDeploys == 0 {
		t.Fatalf("no background deploys: %+v", pt)
	}
}

func TestExperimentRendersNonEmpty(t *testing.T) {
	// Every Render must produce output without error; cover the ones not
	// rendered elsewhere in this file.
	r5, err := e5Sweep{sizesGB: []float64{2}}.run(Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r12, err := e12Sweep{sizesGB: []float64{4}, clients: 32}.run(Params{Seed: 9, HorizonS: 600})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r5.Render(&sb); err != nil || sb.Len() == 0 {
		t.Fatalf("E5 render: %v", err)
	}
	sb.Reset()
	if err := r12.Render(&sb); err != nil || sb.Len() == 0 {
		t.Fatalf("E12 render: %v", err)
	}
}

func TestE13BatchingRelievesDB(t *testing.T) {
	r, err := e13Sweep{windowsS: []float64{0, 0.1}, clients: 32}.run(Params{Seed: 5, HorizonS: 600})
	if err != nil {
		t.Fatal(err)
	}
	noBatch, batched := r.Points[0], r.Points[1]
	if batched.LinkedPerHour <= noBatch.LinkedPerHour {
		t.Fatalf("batching did not raise throughput: %v -> %v",
			noBatch.LinkedPerHour, batched.LinkedPerHour)
	}
	if batched.DB.MeanGroupSize <= 1.1 {
		t.Fatalf("batched group size = %v", batched.DB.MeanGroupSize)
	}
	if noBatch.DB.MeanGroupSize > 1.01 {
		t.Fatalf("unbatched group size = %v, want 1", noBatch.DB.MeanGroupSize)
	}
	if noBatch.DB.Flushes < batched.DB.Flushes {
		t.Fatalf("flushes: %d unbatched < %d batched", noBatch.DB.Flushes, batched.DB.Flushes)
	}
}

func TestE14EvacuationStretchesUnderLoad(t *testing.T) {
	r, err := e14Sweep{rates: []float64{0, 6000}, hostVMs: 8}.run(Params{Seed: 5, HorizonS: 600})
	if err != nil {
		t.Fatal(err)
	}
	idle, busy := r.Points[0], r.Points[1]
	if idle.Migrations != 8 || busy.Migrations != 8 {
		t.Fatalf("migrations = %d/%d, want 8", idle.Migrations, busy.Migrations)
	}
	if busy.EvacuationS <= idle.EvacuationS {
		t.Fatalf("evacuation did not stretch: idle %v vs busy %v",
			idle.EvacuationS, busy.EvacuationS)
	}
	if busy.DeploysDone == 0 {
		t.Fatal("no background deploys")
	}
}

func TestE15FewerCellsHurtReplayedUsers(t *testing.T) {
	r, err := RunE15(Params{Seed: 5, HorizonS: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recorded == 0 {
		t.Fatal("nothing recorded")
	}
	one, four := r.Points[0], r.Points[1]
	// Issued counts may differ slightly: under-provisioned replays delay
	// deploys, so some VM-scoped records find no live target. But both
	// replays dispatch the same order of magnitude of work...
	if one.Issued*2 < four.Issued {
		t.Fatalf("replay issued wildly different op counts: %d vs %d", one.Issued, four.Issued)
	}
	// ...and the under-provisioned control plane visibly hurts users.
	if one.DeployP95S <= 1.5*four.DeployP95S {
		t.Fatalf("1-cell p95 %v not ≫ 4-cell %v", one.DeployP95S, four.DeployP95S)
	}
	if one.DeployQueueS <= four.DeployQueueS {
		t.Fatalf("1-cell queue %v not > 4-cell %v", one.DeployQueueS, four.DeployQueueS)
	}
}

func TestRunAllQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still takes seconds")
	}
	var sb strings.Builder
	if err := RunAllWith(&sb, 3, true, RunAllOptions{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, marker := range []string{"E1:", "E4:", "E6:", "E8:", "E11:", "E13:", "E14:", "E15:"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("RunAllWith output missing %s", marker)
		}
	}
}

func TestE16RestartStormStretchesUnderLoad(t *testing.T) {
	// E16's registry scale (1,800 s, 16 VMs), where the background
	// stream has saturated the manager by the failure at 1,200 s. At
	// 600 s with 8 VMs the host fails before that, and recovery under
	// load beats idle recovery at seeds 10, 12, 15, 17, 20 and 22.
	storm := e16Storm{rates: []float64{0, 6000}, hostVMs: 16}
	for _, seed := range []int64{5, 10, 12, 15, 17, 20, 22, 1} {
		pts, err := storm.run(Params{Seed: seed, HorizonS: 1800})
		if err != nil {
			t.Fatal(err)
		}
		idle, busy := pts[0], pts[1]
		if idle.Restarted != 16 || busy.Restarted != 16 {
			t.Fatalf("seed %d: restarted = %d/%d, want 16", seed, idle.Restarted, busy.Restarted)
		}
		if idle.Unplaced != 0 || busy.Unplaced != 0 {
			t.Fatalf("seed %d: unplaced = %d/%d", seed, idle.Unplaced, busy.Unplaced)
		}
		if busy.RecoveryS <= idle.RecoveryS {
			t.Fatalf("seed %d: recovery did not stretch: idle %v vs busy %v", seed, idle.RecoveryS, busy.RecoveryS)
		}
	}
}

func TestBottleneckReport(t *testing.T) {
	c, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunProfile(workload.CloudA(), 2*Hour); err != nil {
		t.Fatal(err)
	}
	report := c.BottleneckReport()
	if len(report) < 5 {
		t.Fatalf("report = %+v", report)
	}
	for i := 1; i < len(report); i++ {
		if report[i].Utilization > report[i-1].Utilization {
			t.Fatal("report not sorted by utilization")
		}
	}
	seen := map[string]bool{}
	for _, r := range report {
		seen[r.Stage] = true
	}
	if !seen["mgmt.threads"] || !seen["cell0"] {
		t.Fatalf("missing stages: %+v", report)
	}
}

// Host agents tied for the highest utilization resolve to the last in
// host-ID order, on every cloud, as tied datastores do.
func TestBottleneckReportBreaksAgentTiesByHostID(t *testing.T) {
	for i := 0; i < 20; i++ {
		cfg := DefaultConfig(1)
		cfg.Director.RebalanceThreshold = 0
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range c.Inventory().Hosts()[:3] {
			agent := c.Manager().Agents().Agent(id)
			c.Go("work", func(p *sim.Proc) {
				agent.Slots().Acquire(p, 1)
				p.Sleep(10)
				agent.Slots().Release(1)
			})
		}
		c.Run(100)
		var got string
		for _, s := range c.BottleneckReport() {
			if strings.HasPrefix(s.Stage, "hostagent:") {
				got = s.Stage
			}
		}
		c.Close()
		if got != "hostagent:host02" {
			t.Fatalf("cloud %d: busiest agent %q, want hostagent:host02", i, got)
		}
	}
}

func TestDRSIntegration(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.DRS = drsConfigForTest()
	cfg.Director.RebalanceThreshold = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inventory()
	tpl := inv.Template(inv.Templates()[0])
	hot := inv.Host(inv.Hosts()[0])
	c.Go("skew", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			vm, task := c.Manager().DeployVM(p, "vm", tpl, hot, inv.Datastore(inv.Datastores()[0]), ops.LinkedClone, mgmt.ReqCtx{Org: "o"})
			if task.Err == nil {
				c.Manager().PowerOn(p, vm, mgmt.ReqCtx{Org: "o"})
			}
		}
	})
	c.Run(2 * Hour)
	st := c.DRS().Stats()
	if st.Moves == 0 {
		t.Fatalf("DRS never acted: %+v (spread %v)", st, c.DRS().Spread())
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigDRS(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"drs": {"threshold": 0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DRS.Threshold != 0.1 || cfg.DRS.CheckS == 0 || cfg.DRS.Batch == 0 {
		t.Fatalf("drs = %+v", cfg.DRS)
	}
}
