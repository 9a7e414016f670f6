package mgmt

import (
	"errors"
	"strings"
	"testing"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
)

func injector(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	in, err := faults.New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// With FailProb=1 every attempt fails in the host stage; the manager
// must retry MaxAttempts times, charge the backoff to queue time, and
// give up with a faults error.
func TestRetryExhaustionGivesUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = injector(t, faults.Config{Host: faults.Layer{FailProb: 1}})
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 2, Multiplier: 2}
	f := newFixture(t, cfg)
	var task *Task
	f.env.Go("deploy", func(p *sim.Proc) {
		_, task = f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	if task.Err == nil {
		t.Fatal("task succeeded under FailProb=1")
	}
	var fe *faults.Error
	if !errors.As(task.Err, &fe) || fe.Layer != faults.LayerHost {
		t.Fatalf("err = %v, want wrapped host faults.Error", task.Err)
	}
	if task.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", task.Attempts)
	}
	rs := f.mgr.RetryStats()
	if rs.Attempts != 3 || rs.Faults != 3 || rs.Retries != 2 || rs.GiveUps != 1 {
		t.Fatalf("retry stats %+v", rs)
	}
	// Two backoffs of at least 2 s and 4 s must appear in queue time.
	if task.Breakdown.Queue < 6 {
		t.Fatalf("queue %v does not include backoffs", task.Breakdown.Queue)
	}
	// The VM must not exist: injection precedes the data-plane mutation.
	if got := len(f.inv.VMs()); got != 0 {
		t.Fatalf("%d VMs created by a failed deploy", got)
	}
	rows := f.mgr.Goodput()
	if len(rows) != 1 || rows[0].Kind != ops.KindDeploy || rows[0].OK != 0 || rows[0].Attempts != 3 || rows[0].GiveUps != 1 {
		t.Fatalf("goodput rows %+v", rows)
	}
}

// A deadline shorter than the first backoff converts the retry into a
// deadline give-up.
func TestRetryDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = injector(t, faults.Config{DB: faults.Layer{FailProb: 1}})
	cfg.Retry = RetryPolicy{MaxAttempts: 10, BaseBackoff: 1000, Multiplier: 2, Deadline: 60}
	f := newFixture(t, cfg)
	var task *Task
	f.env.Go("deploy", func(p *sim.Proc) {
		_, task = f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.LinkedClone, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	if task.Err == nil || !strings.Contains(task.Err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline give-up", task.Err)
	}
	rs := f.mgr.RetryStats()
	if rs.GiveUps != 1 || rs.Deadline != 1 || rs.Retries != 0 {
		t.Fatalf("retry stats %+v", rs)
	}
	if task.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (deadline before first retry)", task.Attempts)
	}
}

// Under a moderate fault rate with retries enabled, most tasks succeed
// (goodput) but cost more than one attempt on average (amplification),
// and two identical runs agree exactly.
func TestRetryAmplificationDeterministic(t *testing.T) {
	run := func() (RetryStats, int64, float64) {
		cfg := DefaultConfig()
		cfg.Faults = injector(t, faults.Preset(0.3))
		cfg.Retry = DefaultRetryPolicy()
		f := newFixture(t, cfg)
		f.env.Go("deploys", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[i%2], f.ds[i%2], ops.LinkedClone, ReqCtx{Org: "org"})
			}
		})
		f.env.Run(sim.Forever)
		return f.mgr.RetryStats(), f.mgr.TaskErrors(), float64(f.env.Now())
	}
	rs1, errs1, now1 := run()
	rs2, errs2, now2 := run()
	if rs1 != rs2 || errs1 != errs2 || now1 != now2 {
		t.Fatalf("identical runs diverged: %+v/%d/%v vs %+v/%d/%v", rs1, errs1, now1, rs2, errs2, now2)
	}
	if rs1.Attempts != 40+rs1.Retries {
		t.Fatalf("attempts %d != tasks 40 + retries %d", rs1.Attempts, rs1.Retries)
	}
	if rs1.Retries == 0 {
		t.Fatal("preset 0.3 produced no retries")
	}
	if errs1 >= 20 {
		t.Fatalf("%d/40 tasks failed despite retries", errs1)
	}
}

// An all-zero faults config must leave behaviour bit-identical to no
// injector at all: same virtual end time, same breakdowns, no retry
// accounting.
func TestZeroRateInjectorEquivalence(t *testing.T) {
	run := func(cfg Config) ([]*Task, float64) {
		f := newFixture(t, cfg)
		var tasks []*Task
		f.mgr.AddTaskSink(func(tk *Task) { tasks = append(tasks, tk) })
		f.env.Go("mixed", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				vm, _ := f.mgr.DeployVM(p, "vm", f.tpl, f.hosts[i%2], f.ds[i%2], ops.LinkedClone, ReqCtx{Org: "org"})
				if vm != nil {
					f.mgr.PowerOn(p, vm, ReqCtx{Org: "org"})
				}
			}
		})
		f.env.Run(sim.Forever)
		return tasks, float64(f.env.Now())
	}
	plain := DefaultConfig()
	zero := DefaultConfig()
	zero.Faults = injector(t, faults.Config{})
	zero.Retry = DefaultRetryPolicy()
	t1, end1 := run(plain)
	t2, end2 := run(zero)
	if end1 != end2 {
		t.Fatalf("end times diverged: %v vs %v", end1, end2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("task counts diverged: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Start != t2[i].Start || t1[i].End != t2[i].End || t1[i].Breakdown != t2[i].Breakdown {
			t.Fatalf("task %d diverged:\n%+v\n%+v", i, t1[i], t2[i])
		}
	}
}

// Injected fault give-up errors land in the trace via task sinks and in
// the kind's goodput row as a task that did not finish OK.
func TestGiveUpCountsAsError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = injector(t, faults.Config{Storage: faults.Layer{FailProb: 1}})
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, Multiplier: 1}
	f := newFixture(t, cfg)
	f.env.Go("deploy", func(p *sim.Proc) {
		f.mgr.DeployVM(p, "vm0", f.tpl, f.hosts[0], f.ds[0], ops.FullClone, ReqCtx{Org: "org"})
	})
	f.env.Run(sim.Forever)
	if f.mgr.TaskErrors() != 1 {
		t.Fatalf("task errors = %d", f.mgr.TaskErrors())
	}
	rows := f.mgr.Goodput()
	if len(rows) != 1 || rows[0].Tasks != 1 || rows[0].OK != 0 {
		t.Fatalf("goodput %+v", rows)
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: -1}
	env := sim.NewEnv()
	inv := inventory.New()
	if _, err := New(env, inv, nil, nil, nil, ops.DefaultCostModel(), nil, "", cfg); err == nil {
		t.Fatal("negative retry policy validated")
	}
}
