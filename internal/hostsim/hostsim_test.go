package hostsim

import (
	"math"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// exec runs seconds of host work for p the way a caller of Slots and
// Record does, and returns the seconds p queued for a slot.
func exec(p *sim.Proc, a *Agent, seconds float64) (waited float64) {
	t0 := p.Now()
	a.Slots().Acquire(p, 1)
	waited = p.Now() - t0
	p.Sleep(seconds)
	a.Slots().Release(1)
	a.Record(waited, seconds)
	return waited
}

func TestExecService(t *testing.T) {
	env := sim.NewEnv()
	a := NewAgent(env, 1, "h0", 2)
	wait := -1.0
	env.Go("op", func(p *sim.Proc) { wait = exec(p, a, 3) })
	end := env.Run(sim.Forever)
	if s := a.Stats(); wait != 0 || end != 3 || s.Ops != 1 || s.Busy != 3 {
		t.Fatalf("wait=%v end=%v stats=%+v", wait, end, s)
	}
}

func TestSlotsBoundConcurrency(t *testing.T) {
	// 4 ops of 10 s on a 2-slot agent: makespan 20 s; later ops wait 10 s.
	env := sim.NewEnv()
	a := NewAgent(env, 1, "h0", 2)
	var waits []float64
	for i := 0; i < 4; i++ {
		env.Go("op", func(p *sim.Proc) {
			waits = append(waits, exec(p, a, 10))
		})
	}
	end := env.Run(sim.Forever)
	if end != 20 {
		t.Fatalf("makespan = %v", end)
	}
	nonzero := 0
	for _, w := range waits {
		if w > 0 {
			nonzero++
			if math.Abs(w-10) > 1e-9 {
				t.Fatalf("wait = %v, want 10", w)
			}
		}
	}
	if nonzero != 2 {
		t.Fatalf("%d ops waited, want 2", nonzero)
	}
}

func TestAgentStats(t *testing.T) {
	env := sim.NewEnv()
	a := NewAgent(env, 7, "h0", 1)
	for i := 0; i < 2; i++ {
		env.Go("op", func(p *sim.Proc) { exec(p, a, 5) })
	}
	env.Run(sim.Forever)
	s := a.Stats()
	if s.HostID != 7 || s.Ops != 2 || s.Busy != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.MeanWait-2.5) > 1e-9 { // second op waited 5 s
		t.Fatalf("mean wait = %v", s.MeanWait)
	}
	if s.Util.Utilization < 0.99 {
		t.Fatalf("util = %v", s.Util.Utilization)
	}
}

func TestRegistry(t *testing.T) {
	env := sim.NewEnv()
	inv := inventory.New()
	dc := inv.AddDatacenter("dc")
	cl := inv.AddCluster(dc, "cl")
	h0 := inv.AddHost(cl, "h0", 10000, 8192)
	h1 := inv.AddHost(cl, "h1", 10000, 8192)
	r := NewRegistry(env, inv, 4)
	if r.Agent(h0.ID) == nil || r.Agent(h1.ID) == nil {
		t.Fatal("agents missing")
	}
	if r.Agent(999) != nil {
		t.Fatal("phantom agent")
	}
	// Ensure creates on demand and is idempotent.
	a := r.Ensure(42, "late")
	if a == nil || r.Ensure(42, "late") != a {
		t.Fatal("ensure not idempotent")
	}
}
