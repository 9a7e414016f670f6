// Package workload generates the management workloads the experiments
// drive through the cloud director: two synthetic self-service cloud
// profiles standing in for the paper's two real-world setups, plus a
// classic admin-driven datacenter mix as the comparison baseline.
//
//   - CloudA models a bursty development/test cloud: strongly diurnal
//     self-service arrivals with occasional burst trains (a team spinning
//     up a test rig), small vApps, and hours-long lifetimes.
//   - CloudB models a training/classroom cloud: deploys arrive in large
//     session-boundary batches (a class starting), run for the session,
//     and are torn down together.
//   - ClassicDC models the pre-cloud management mix: rare provisioning,
//     long-lived VMs, and a steady trickle of admin operations
//     (migrations, reconfigurations, snapshots).
//
// The generators drive a clouddir.Director; every resulting operation is
// recorded by the manager's task sinks, which is what the trace and
// analysis packages consume.
package workload

import (
	"fmt"
	"math"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// Day is one simulated day in seconds.
const Day = 86400.0

// Profile parameterizes one workload generator.
type Profile struct {
	Name string

	// Self-service arrivals: a (possibly modulated) Poisson process of
	// vApp deployment requests.
	BaseRatePerHour  float64 // mean vApp requests per hour
	DiurnalAmplitude float64 // 0 (flat) .. 1 (full day/night swing)
	BurstProb        float64 // probability an arrival heads a burst train
	BurstMin         int     // extra requests in a burst, inclusive bounds
	BurstMax         int
	VAppMin          int // VMs per vApp, inclusive bounds
	VAppMax          int

	// Session batches (CloudB): every SessionIntervalS, SessionBatch
	// vApps deploy together and live for SessionLifetimeS. 0 disables.
	SessionIntervalS float64
	SessionBatch     int
	SessionLifetimeS float64

	// Lifetime of self-service vApps before the user deletes them
	// (log-normal).
	LifetimeMeanS float64
	LifetimeCV    float64

	// Steady-state per-VM activity rates, per VM-hour.
	PowerCycleRate float64
	SnapshotRate   float64
	ReconfigRate   float64
	MigrateRate    float64 // admin-driven; classic DC mostly
	SuspendRate    float64 // suspend/resume cycles (classroom clouds)

	// TemplateTheta is the Zipf skew of template popularity.
	TemplateTheta float64
	// Orgs is the number of tenants requests are attributed to.
	Orgs int
}

// CloudA returns the bursty development/test cloud profile.
func CloudA() Profile {
	return Profile{
		Name:             "CloudA",
		BaseRatePerHour:  40,
		DiurnalAmplitude: 0.8,
		BurstProb:        0.15,
		BurstMin:         2,
		BurstMax:         8,
		VAppMin:          1,
		VAppMax:          4,
		LifetimeMeanS:    4 * 3600,
		LifetimeCV:       1.0,
		PowerCycleRate:   0.20,
		SnapshotRate:     0.06,
		ReconfigRate:     0.03,
		MigrateRate:      0.002,
		SuspendRate:      0.01,
		TemplateTheta:    1.0,
		Orgs:             24,
	}
}

// CloudB returns the training/classroom cloud profile.
func CloudB() Profile {
	return Profile{
		Name:             "CloudB",
		BaseRatePerHour:  6, // drop-in use between sessions
		DiurnalAmplitude: 0.3,
		VAppMin:          1,
		VAppMax:          2,
		SessionIntervalS: 2 * 3600,
		SessionBatch:     30,
		SessionLifetimeS: 1.7 * 3600,
		LifetimeMeanS:    2 * 3600,
		LifetimeCV:       0.5,
		PowerCycleRate:   0.10,
		SnapshotRate:     0.02,
		ReconfigRate:     0.01,
		MigrateRate:      0.001,
		SuspendRate:      0.08, // classes pause between sessions
		TemplateTheta:    1.4,  // classes share few images
		Orgs:             8,
	}
}

// ClassicDC returns the admin-driven classic datacenter baseline.
func ClassicDC() Profile {
	return Profile{
		Name:             "ClassicDC",
		BaseRatePerHour:  1.5,
		DiurnalAmplitude: 0.5,
		VAppMin:          1,
		VAppMax:          1,
		LifetimeMeanS:    20 * Day, // effectively permanent within a run
		LifetimeCV:       0.3,
		PowerCycleRate:   0.02,
		SnapshotRate:     0.03,
		ReconfigRate:     0.04,
		MigrateRate:      0.03,
		TemplateTheta:    0.6,
		Orgs:             4,
	}
}

// ByName returns a built-in profile by its CLI name: "cloud-a",
// "cloud-b", or "classic-dc".
func ByName(name string) (Profile, error) {
	switch name {
	case "cloud-a":
		return CloudA(), nil
	case "cloud-b":
		return CloudB(), nil
	case "classic-dc":
		return ClassicDC(), nil
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (want cloud-a, cloud-b, or classic-dc)", name)
}

// Validate checks the profile for usable values.
func (pr Profile) Validate() error {
	if pr.BaseRatePerHour < 0 || pr.DiurnalAmplitude < 0 || pr.DiurnalAmplitude > 1 {
		return fmt.Errorf("workload: bad rate/amplitude in %q", pr.Name)
	}
	if pr.BaseRatePerHour > 0 && (pr.VAppMin <= 0 || pr.VAppMax < pr.VAppMin) {
		return fmt.Errorf("workload: bad vApp size bounds in %q", pr.Name)
	}
	if pr.BurstProb < 0 || pr.BurstProb > 1 || pr.BurstMax < pr.BurstMin {
		return fmt.Errorf("workload: bad burst config in %q", pr.Name)
	}
	if pr.LifetimeMeanS <= 0 && (pr.BaseRatePerHour > 0 || pr.SessionIntervalS > 0) {
		return fmt.Errorf("workload: non-positive lifetime in %q", pr.Name)
	}
	if pr.SessionIntervalS > 0 && (pr.SessionBatch <= 0 || pr.SessionLifetimeS <= 0) {
		return fmt.Errorf("workload: bad session config in %q", pr.Name)
	}
	if pr.Orgs <= 0 {
		return fmt.Errorf("workload: orgs must be positive in %q", pr.Name)
	}
	return nil
}

// Stats counts what the generator issued.
type Stats struct {
	Arrivals     int64 // vApp deployment requests issued
	Bursts       int64 // burst trains triggered
	Sessions     int64 // session batches started
	Deleted      int64 // vApps deleted at end of life
	ActivityOps  int64 // per-VM background operations issued
	DeployErrors int64
}

// Generator drives one profile against a director.
type Generator struct {
	env     *sim.Env
	dir     *clouddir.Director
	profile Profile
	stream  *rng.Stream
	zipf    *rng.Zipf
	horizon sim.Time
	stats   Stats
	nextID  int64

	// The profile's per-VM activity mix, fixed for the generator's life:
	// the rates by operation and their sum per second (see activityLoop).
	activity     [5]float64
	activityRate float64
}

// NewGenerator builds a generator. The horizon bounds when new work is
// created (in-flight work may finish later). The stream must be dedicated
// to this generator.
func NewGenerator(env *sim.Env, dir *clouddir.Director, profile Profile, stream *rng.Stream, horizon sim.Time) (*Generator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: horizon %v", horizon)
	}
	ntpl := len(dir.Plane().Inventory().Templates())
	if ntpl == 0 {
		return nil, fmt.Errorf("workload: inventory has no templates")
	}
	return &Generator{
		env: env, dir: dir, profile: profile, stream: stream,
		zipf:         rng.NewZipf(stream, ntpl, profile.TemplateTheta),
		horizon:      horizon,
		activity:     [5]float64{profile.PowerCycleRate, profile.SnapshotRate, profile.ReconfigRate, profile.MigrateRate, profile.SuspendRate},
		activityRate: (profile.PowerCycleRate + profile.SnapshotRate + profile.ReconfigRate + profile.MigrateRate + profile.SuspendRate) / 3600,
	}, nil
}

// Stats returns what has been issued so far.
func (g *Generator) Stats() Stats { return g.stats }

// Start launches the arrival and session processes.
func (g *Generator) Start() {
	if g.profile.BaseRatePerHour > 0 {
		g.env.Go(g.profile.Name+":arrivals", g.arrivalLoop)
	}
	if g.profile.SessionIntervalS > 0 {
		g.env.Go(g.profile.Name+":sessions", g.sessionLoop)
	}
}

// rateAt returns the instantaneous arrival rate (requests/second) at time
// t, applying the diurnal modulation: lowest at t=0 (midnight), peaking
// mid-day.
func (g *Generator) rateAt(t sim.Time) float64 {
	base := g.profile.BaseRatePerHour / 3600
	if g.profile.DiurnalAmplitude == 0 {
		return base
	}
	phase := 2 * math.Pi * math.Mod(t, Day) / Day
	return base * (1 - g.profile.DiurnalAmplitude*math.Cos(phase))
}

// arrivalLoop issues self-service vApp requests as a thinned Poisson
// process with the diurnal rate.
func (g *Generator) arrivalLoop(p *sim.Proc) {
	maxRate := g.profile.BaseRatePerHour / 3600 * (1 + g.profile.DiurnalAmplitude)
	for {
		p.Sleep(g.stream.Exponential(1 / maxRate))
		if p.Now() >= g.horizon {
			return
		}
		if !g.stream.Bernoulli(g.rateAt(p.Now()) / maxRate) {
			continue // thinned out
		}
		n := 1
		if g.stream.Bernoulli(g.profile.BurstProb) {
			g.stats.Bursts++
			n += g.profile.BurstMin
			if g.profile.BurstMax > g.profile.BurstMin {
				n += g.stream.Intn(g.profile.BurstMax - g.profile.BurstMin + 1)
			}
		}
		for i := 0; i < n; i++ {
			lifetime := g.stream.LogNormal(g.profile.LifetimeMeanS, g.profile.LifetimeCV)
			g.launchVApp(g.vappSize(), lifetime)
		}
	}
}

// sessionLoop deploys the session batches.
func (g *Generator) sessionLoop(p *sim.Proc) {
	for {
		p.Sleep(g.profile.SessionIntervalS)
		if p.Now() >= g.horizon {
			return
		}
		g.stats.Sessions++
		for i := 0; i < g.profile.SessionBatch; i++ {
			g.launchVApp(g.vappSize(), g.profile.SessionLifetimeS)
		}
	}
}

func (g *Generator) vappSize() int {
	n := g.profile.VAppMin
	if g.profile.VAppMax > g.profile.VAppMin {
		n += g.stream.Intn(g.profile.VAppMax - g.profile.VAppMin + 1)
	}
	return n
}

// launchVApp spawns the full lifecycle of one vApp: deploy, background
// activity, delete after its lifetime.
func (g *Generator) launchVApp(size int, lifetimeS float64) {
	g.stats.Arrivals++
	g.nextID++
	org := fmt.Sprintf("org%d", g.stream.Intn(g.profile.Orgs))
	tplIdx := g.zipf.Draw()
	name := fmt.Sprintf("%s-req%d", g.profile.Name, g.nextID)
	g.env.Go(name, func(p *sim.Proc) {
		inv := g.dir.Plane().Inventory()
		tpl := inv.Template(inv.Templates()[tplIdx])
		res := g.dir.DeployVApp(p, org, tpl, size, true)
		if res.Err != nil {
			g.stats.DeployErrors++
			// Tear down whatever partially deployed.
			if res.VApp != nil && inv.VApp(res.VApp.ID) != nil {
				g.dir.DeleteVApp(p, res.VApp, org)
			}
			return
		}
		for _, vmID := range res.VApp.VMs {
			vmID := vmID
			g.env.Schedule(0, func() { g.activityLoop(vmID, org) })
		}
		// The vApp needs no process while it lives out its lifetime, and
		// its timer holds only the vApp, not the deploy's tasks.
		va := res.VApp
		g.env.GoAfter(lifetimeS, func(p *sim.Proc) {
			if inv.VApp(va.ID) != nil {
				g.dir.DeleteVApp(p, va, org)
				g.stats.Deleted++
			}
		})
	})
}

// activityLoop issues background per-VM operations, one after each
// exponential gap, until the VM is deleted or the horizon passes. The VM
// has no process between operations: each operation is a process of its
// own that ends by drawing the next gap and starting the next operation
// after it.
func (g *Generator) activityLoop(vmID inventory.ID, org string) {
	total := g.activityRate
	if total <= 0 {
		return
	}
	pl := g.dir.Plane()
	inv := pl.Inventory()
	var op func(p *sim.Proc)
	op = func(p *sim.Proc) {
		if p.Now() >= g.horizon {
			return
		}
		vm := inv.VM(vmID)
		if vm == nil || vm.State == inventory.VMDeleted {
			return
		}
		g.stats.ActivityOps++
		// Background churn bypasses the cell stage: in both real setups
		// the steady per-VM activity reaches the manager directly as
		// often as via the cloud API, and keeping it manager-side keeps
		// cell load attributable to self-service requests.
		ctx := mgmt.ReqCtx{Org: org}
		switch g.stream.WeightedChoice(g.activity[:]) {
		case 0: // power cycle
			if vm.State == inventory.VMPoweredOn {
				pl.PowerOff(p, vm, ctx)
				if inv.VM(vmID) != nil {
					pl.PowerOn(p, vm, ctx)
				}
			} else if vm.State == inventory.VMPoweredOff {
				pl.PowerOn(p, vm, ctx)
			}
		case 1: // snapshot: create, and remove the oldest if piling up
			if vm.Snapshots >= 3 {
				pl.SnapshotRemove(p, vm, ctx)
			} else {
				pl.SnapshotCreate(p, vm, ctx)
			}
		case 2:
			pl.Reconfigure(p, vm, ctx)
		case 3:
			if dst := g.pickOtherHost(vm); dst != nil {
				pl.Migrate(p, vm, dst, ctx)
			}
		case 4: // suspend/resume cycle
			if vm.State == inventory.VMPoweredOn {
				pl.Suspend(p, vm, ctx)
			} else if vm.State == inventory.VMSuspended {
				pl.Resume(p, vm, ctx)
			}
		}
		g.env.GoAfter(g.stream.Exponential(1/total), op)
	}
	g.env.GoAfter(g.stream.Exponential(1/total), op)
}

// pickOtherHost finds the most-free in-service host other than the
// VM's current one via the capacity index; pickOtherHostLinear (in
// policy_equiv_test.go) is the O(hosts) reference the equivalence test
// pins it against.
func (g *Generator) pickOtherHost(vm *inventory.VM) *inventory.Host {
	inv := g.dir.Plane().Inventory()
	return inv.BestHostExcluding(vm.HostID, vm.MemMB, 0)
}
