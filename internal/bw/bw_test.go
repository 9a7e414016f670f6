package bw

// The engine's sharing behaviour is exercised exhaustively through the
// storage package's tests (which use it via a type alias); these tests
// cover the package's own contract directly.

import (
	"math"
	"slices"
	"testing"

	"cloudmcp/internal/sim"
)

func TestFairShare(t *testing.T) {
	env := sim.NewEnv()
	e := NewEngine(env, "link", 100)
	var done []sim.Time
	for i := 0; i < 4; i++ {
		env.Go("t", func(p *sim.Proc) {
			e.Copy(p, 250)
			done = append(done, p.Now())
		})
	}
	env.Run(sim.Forever)
	for _, d := range done {
		if math.Abs(float64(d)-10) > 1e-6 {
			t.Fatalf("done = %v, want all at 10 (4x250MB shared at 100MB/s)", done)
		}
	}
	s := e.Stats()
	if s.Transfers != 4 || s.BytesMB != 1000 {
		t.Fatalf("stats = %+v", s)
	}
}

// Transfers that finish at the same instant wake their processes in the
// order they started, on every run: repeated rounds catch an order that
// varies between runs.
func TestSimultaneousCompletionsWakeInStartOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		env := sim.NewEnv()
		e := NewEngine(env, "link", 100)
		var woke []int
		for i := 0; i < 4; i++ {
			env.Go("t", func(p *sim.Proc) {
				e.Copy(p, 64)
				woke = append(woke, i)
			})
		}
		env.Run(sim.Forever)
		if !slices.Equal(woke, []int{0, 1, 2, 3}) {
			t.Fatalf("round %d: wake order %v, want start order [0 1 2 3]", round, woke)
		}
	}
}

func TestBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(sim.NewEnv(), "x", 0)
}

func TestNameAndBandwidthAccessors(t *testing.T) {
	e := NewEngine(sim.NewEnv(), "net0", 1250)
	if e.name != "net0" || e.bwMBps != 1250 || len(e.active) != 0 {
		t.Fatalf("fields: %q %v %d", e.name, e.bwMBps, len(e.active))
	}
}
