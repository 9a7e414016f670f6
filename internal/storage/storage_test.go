package storage

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSingleCopyDuration(t *testing.T) {
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100) // 100 MB/s
	var done sim.Time
	env.Go("c", func(p *sim.Proc) {
		e.Copy(p, 1000) // 1000 MB → 10 s
		done = p.Now()
	})
	env.Run(sim.Forever)
	if !almost(done, 10, 1e-9) {
		t.Fatalf("done at %v, want 10", done)
	}
}

func TestFairShareTwoEqualCopies(t *testing.T) {
	// Two simultaneous 1000 MB copies at 100 MB/s share fairly: both
	// finish at 20 s (not 10 and 20).
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		env.Go("c", func(p *sim.Proc) {
			e.Copy(p, 1000)
			done = append(done, p.Now())
		})
	}
	env.Run(sim.Forever)
	if len(done) != 2 || !almost(done[0], 20, 1e-6) || !almost(done[1], 20, 1e-6) {
		t.Fatalf("done = %v, want both 20", done)
	}
}

func TestFairShareStaggeredArrival(t *testing.T) {
	// Copy A (1000 MB) starts at 0 alone; copy B (500 MB) arrives at 5 s.
	// A has 500 MB left then; both drain at 50 MB/s → both end at 15 s.
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100)
	var aEnd, bEnd sim.Time
	env.Go("a", func(p *sim.Proc) {
		e.Copy(p, 1000)
		aEnd = p.Now()
	})
	env.Go("b", func(p *sim.Proc) {
		p.Sleep(5)
		e.Copy(p, 500)
		bEnd = p.Now()
	})
	env.Run(sim.Forever)
	if !almost(aEnd, 15, 1e-6) || !almost(bEnd, 15, 1e-6) {
		t.Fatalf("aEnd=%v bEnd=%v, want 15, 15", aEnd, bEnd)
	}
}

func TestShorterCopyFinishesFirst(t *testing.T) {
	// A=1000MB and B=200MB start together at 100 MB/s. B done when each
	// got 200MB (t=4s); A then drains 800MB alone, done at 12s.
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100)
	var aEnd, bEnd sim.Time
	env.Go("a", func(p *sim.Proc) { e.Copy(p, 1000); aEnd = p.Now() })
	env.Go("b", func(p *sim.Proc) { e.Copy(p, 200); bEnd = p.Now() })
	env.Run(sim.Forever)
	if !almost(bEnd, 4, 1e-6) {
		t.Fatalf("bEnd = %v, want 4", bEnd)
	}
	if !almost(aEnd, 12, 1e-6) {
		t.Fatalf("aEnd = %v, want 12", aEnd)
	}
}

func TestZeroSizeCopyImmediate(t *testing.T) {
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100)
	var done sim.Time = -1
	env.Go("c", func(p *sim.Proc) {
		e.Copy(p, 0)
		done = p.Now()
	})
	env.Run(sim.Forever)
	if done != 0 {
		t.Fatalf("done = %v", done)
	}
}

func TestEngineStats(t *testing.T) {
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 100)
	for i := 0; i < 2; i++ {
		env.Go("c", func(p *sim.Proc) { e.Copy(p, 1000) })
	}
	env.Go("idle", func(p *sim.Proc) { p.Sleep(40) }) // extend run to 40 s
	env.Run(sim.Forever)
	s := e.Stats()
	if s.Transfers != 2 || s.BytesMB != 2000 {
		t.Fatalf("stats = %+v", s)
	}
	if !almost(s.BusyFrac, 0.5, 1e-6) { // busy 20 of 40 s
		t.Fatalf("busy = %v", s.BusyFrac)
	}
	if !almost(s.MeanActive, 1.0, 1e-6) { // 2 active for 20 of 40 s
		t.Fatalf("meanActive = %v", s.MeanActive)
	}
}

// Property: total makespan of n equal concurrent copies equals n*size/bw
// (work conservation), regardless of n.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(n8 uint8, size8 uint8) bool {
		n := int(n8%16) + 1
		size := float64(size8%100) + 1
		env := sim.NewEnv()
		e := NewEngine(env, "ds", 50)
		for i := 0; i < n; i++ {
			env.Go("c", func(p *sim.Proc) { e.Copy(p, size) })
		}
		end := env.Run(sim.Forever)
		want := float64(n) * size / 50
		return almost(end, want, 1e-6*want+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with staggered arrivals, every copy's duration is at least
// size/bw (can't beat having the whole engine) and completions never lose
// bytes (end time >= last arrival + remaining work / bw).
func TestPropertyCopyLowerBound(t *testing.T) {
	f := func(arr []uint8) bool {
		if len(arr) == 0 || len(arr) > 12 {
			return true
		}
		env := sim.NewEnv()
		e := NewEngine(env, "ds", 10)
		ok := true
		for _, a := range arr {
			start := sim.Time(a % 50)
			size := float64(a%20) + 1
			env.Go("c", func(p *sim.Proc) {
				p.Sleep(start)
				t0 := p.Now()
				e.Copy(p, size)
				if p.Now()-t0 < size/10-1e-9 {
					ok = false
				}
			})
		}
		env.Run(sim.Forever)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func buildInv() (*inventory.Inventory, *inventory.Datastore, *inventory.Datastore) {
	inv := inventory.New()
	dc := inv.AddDatacenter("dc")
	d0 := inv.AddDatastore(dc, "ds0", 1000, 100)
	d1 := inv.AddDatastore(dc, "ds1", 1000, 200)
	return inv, d0, d1
}

func TestPoolEnginesPerDatastore(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, d1 := buildInv()
	pool := NewPool(env, inv)
	if pool.Engine(d0.ID) == nil || pool.Engine(d1.ID) == nil {
		t.Fatal("missing engines")
	}
	if pool.Engine(999) != nil {
		t.Fatal("phantom engine")
	}
}

func TestPoolFullCopyUsesRightEngine(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, d1 := buildInv()
	pool := NewPool(env, inv)
	var t0, t1 sim.Time
	env.Go("c0", func(p *sim.Proc) {
		pool.FullCopy(p, d0.ID, 1) // 1 GB at 100 MB/s → 10.24 s
		t0 = p.Now()
	})
	env.Go("c1", func(p *sim.Proc) {
		pool.FullCopy(p, d1.ID, 1) // 1 GB at 200 MB/s → 5.12 s
		t1 = p.Now()
	})
	env.Run(sim.Forever)
	if !almost(t0, 10.24, 1e-6) || !almost(t1, 5.12, 1e-6) {
		t.Fatalf("t0=%v t1=%v", t0, t1)
	}
}

func TestLinkedCloneDeltaFastAndSmall(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, _ := buildInv()
	pool := NewPool(env, inv)
	var full, linked sim.Time
	env.Go("full", func(p *sim.Proc) {
		pool.FullCopy(p, d0.ID, 20)
		full = p.Now() - 0
	})
	env.Run(sim.Forever)

	env2 := sim.NewEnv()
	inv2, d02, _ := buildInv()
	pool2 := NewPool(env2, inv2)
	env2.Go("linked", func(p *sim.Proc) {
		gb, err := pool2.LinkedCloneDelta(p, d02.ID)
		if err != nil || gb != pool2.Policy.DeltaDiskGB {
			t.Errorf("delta gb=%v err=%v", gb, err)
		}
		linked = p.Now()
	})
	env2.Run(sim.Forever)
	if linked*10 > full {
		t.Fatalf("linked clone (%vs) not ≫ faster than full clone (%vs)", linked, full)
	}
}

func TestCrossCopyOccupiesBothEngines(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, d1 := buildInv()
	pool := NewPool(env, inv)
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		// 1 GB src at 100 MB/s → 10.24 s; dst at 200 MB/s → 5.12 s.
		// Completion waits for the slower (source) side.
		pool.CrossCopy(p, d0.ID, d1.ID, 1)
		end = p.Now()
	})
	env.Run(sim.Forever)
	if !almost(end, 10.24, 1e-6) {
		t.Fatalf("end = %v, want 10.24 (slower side)", end)
	}
	if pool.Engine(d0.ID).Stats().Transfers != 1 || pool.Engine(d1.ID).Stats().Transfers != 1 {
		t.Fatal("both engines should have carried one transfer")
	}
}

func TestConsolidateScalesWithChain(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, _ := buildInv()
	pool := NewPool(env, inv)
	var short, long sim.Time
	env.Go("short", func(p *sim.Proc) {
		t0 := p.Now()
		pool.Consolidate(p, d0.ID, 2)
		short = p.Now() - t0
	})
	env.Run(sim.Forever)
	env.Go("long", func(p *sim.Proc) {
		t0 := p.Now()
		pool.Consolidate(p, d0.ID, 8)
		long = p.Now() - t0
	})
	env.Run(sim.Forever)
	if !almost(long, 4*short, 1e-6) {
		t.Fatalf("consolidate: chain 8 = %v, chain 2 = %v, want 4x", long, short)
	}
}

func TestMostLeastFilledAndImbalance(t *testing.T) {
	env := sim.NewEnv()
	inv, d0, d1 := buildInv()
	pool := NewPool(env, inv)
	inv.AddDatastoreUsed(d0, 800)
	inv.AddDatastoreUsed(d1, 100)
	most, least := pool.MostAndLeastFilled()
	if most != d0.ID || least != d1.ID {
		t.Fatalf("most=%v least=%v", most, least)
	}
	if !almost(pool.Imbalance(), 0.7, 1e-9) {
		t.Fatalf("imbalance = %v", pool.Imbalance())
	}
	_ = env
}

func TestImbalanceSingleDatastore(t *testing.T) {
	env := sim.NewEnv()
	inv := inventory.New()
	dc := inv.AddDatacenter("dc")
	inv.AddDatastore(dc, "only", 100, 10)
	pool := NewPool(env, inv)
	if pool.Imbalance() != 0 {
		t.Fatal("single datastore imbalance must be 0")
	}
	most, least := pool.MostAndLeastFilled()
	if most != inventory.None || least != inventory.None {
		t.Fatal("expected None pair")
	}
}

func TestPoolErrorsOnUnknownDatastore(t *testing.T) {
	env := sim.NewEnv()
	inv, _, _ := buildInv()
	pool := NewPool(env, inv)
	var errs []error
	env.Go("c", func(p *sim.Proc) {
		errs = append(errs, pool.FullCopy(p, 999, 1))
		_, err := pool.LinkedCloneDelta(p, 999)
		errs = append(errs, err)
		errs = append(errs, pool.Consolidate(p, 999, 1))
		errs = append(errs, pool.CrossCopy(p, 999, 999, 1))
	})
	env.Run(sim.Forever)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d: expected error", i)
		}
	}
}

func TestNoClockStallFromSubULPResiduals(t *testing.T) {
	// Regression: a transfer residual just above the finish epsilon could
	// imply a completion delay below the float64 ULP of a large clock
	// value; without the reschedule clamp the engine re-armed an event
	// that never advanced time. Recreate heavy interleaving at a large
	// clock value and require the run to drain.
	env := sim.NewEnv()
	e := NewEngine(env, "ds", 300)
	env.Go("warp", func(p *sim.Proc) { p.Sleep(58000) })
	env.Run(sim.Forever)
	var launched int
	for i := 0; i < 200; i++ {
		i := i
		env.Go("c", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 0.37)
			e.Copy(p, 64.000000001+float64(i)*0.013)
			launched++
		})
	}
	done := make(chan sim.Time, 1)
	go func() { done <- env.Run(sim.Forever) }()
	select {
	case end := <-done:
		if launched != 200 {
			t.Fatalf("completed %d/200", launched)
		}
		if end <= 58000 {
			t.Fatalf("end = %v", end)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("engine stalled the clock")
	}
}
