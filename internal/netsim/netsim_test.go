package netsim

import (
	"math"
	"testing"

	"cloudmcp/internal/sim"
)

func TestMigrateMemoryDuration(t *testing.T) {
	env := sim.NewEnv()
	n, err := New(env, Config{MBps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	env.Go("m", func(p *sim.Proc) {
		n.MigrateMemory(p, 2048) // 2048 MB at 1024 MB/s → 2 s
		end = p.Now()
	})
	env.Run(sim.Forever)
	if math.Abs(float64(end)-2) > 1e-9 {
		t.Fatalf("end = %v, want 2", end)
	}
	if s := n.link.Stats(); s.Transfers != 1 || s.BytesMB != 2048 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentMigrationsShareLink(t *testing.T) {
	env := sim.NewEnv()
	n, _ := New(env, DefaultConfig()) // 1250 MB/s
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		env.Go("m", func(p *sim.Proc) {
			n.MigrateMemory(p, 1250)
			ends = append(ends, p.Now())
		})
	}
	env.Run(sim.Forever)
	for _, e := range ends {
		if math.Abs(float64(e)-2) > 1e-6 { // fair share: both take 2 s
			t.Fatalf("ends = %v, want both 2", ends)
		}
	}
}

func TestThreeWayContentionOnOneLink(t *testing.T) {
	env := sim.NewEnv()
	n, _ := New(env, DefaultConfig()) // 1250 MB/s
	ends := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Go("m", func(p *sim.Proc) {
			n.MigrateMemory(p, 1250) // alone: 1 s; three-way shared: 3 s
			ends[i] = p.Now()
		})
	}
	env.Run(sim.Forever)
	for i, e := range ends {
		if math.Abs(float64(e)-3) > 1e-6 {
			t.Fatalf("migration %d ended at %v, want 3 (fair three-way share)", i, e)
		}
	}
	if s := n.link.Stats(); s.Transfers != 3 || math.Abs(s.BytesMB-3750) > 1e-6 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBandwidthRedividedWhenTransferCompletes(t *testing.T) {
	// Two simultaneous migrations of different sizes on a 1250 MB/s
	// link. While both are in flight each gets 625 MB/s, so the small
	// one (1250 MB) finishes at t=2 with the big one (2500 MB) half
	// done; the big one must then get the whole link back and finish
	// its remaining 1250 MB in 1 s, at t=3 — not at t=4, which is what
	// a non-redividing model would produce.
	env := sim.NewEnv()
	n, _ := New(env, DefaultConfig())
	var smallEnd, bigEnd sim.Time
	env.Go("small", func(p *sim.Proc) {
		n.MigrateMemory(p, 1250)
		smallEnd = p.Now()
	})
	env.Go("big", func(p *sim.Proc) {
		n.MigrateMemory(p, 2500)
		bigEnd = p.Now()
	})
	env.Run(sim.Forever)
	if math.Abs(float64(smallEnd)-2) > 1e-6 {
		t.Fatalf("small migration ended at %v, want 2", smallEnd)
	}
	if math.Abs(float64(bigEnd)-3) > 1e-6 {
		t.Fatalf("big migration ended at %v, want 3 (full link after re-division)", bigEnd)
	}
	if s := n.link.Stats(); math.Abs(s.MeanActive-(5.0/3.0)) > 1e-6 {
		// ∫active dt = 2·2s + 1·1s = 5 transfer-seconds over 3 s.
		t.Fatalf("mean active = %v, want 5/3", s.MeanActive)
	}
}

func TestZeroMemoryFree(t *testing.T) {
	env := sim.NewEnv()
	n, _ := New(env, DefaultConfig())
	env.Go("m", func(p *sim.Proc) { n.MigrateMemory(p, 0) })
	if end := env.Run(sim.Forever); end != 0 {
		t.Fatalf("end = %v", end)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(sim.NewEnv(), Config{}); err == nil {
		t.Fatal("expected error")
	}
}
