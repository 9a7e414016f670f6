package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestResourceQueueIntegralIsLittlesLaw checks Little's law on a Resource
// exactly: the time-integral of the queue length equals the total time
// requests have spent queued, counting the requests still waiting up to
// now. Random process (Acquire) and callback (AcquireThen) clients run
// over several capacities and seeds, and random checkpoint events compare
// the two sides. A request leaves the queue only when granted (there is
// no cancel path), so beyond rounding the sides cannot differ unless the
// kernel's accounting is wrong.
func TestResourceQueueIntegralIsLittlesLaw(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5} {
		for seed := int64(1); seed <= 8; seed++ {
			rnd := rand.New(rand.NewSource(seed*31 + int64(capacity)))
			env := NewEnv()
			r := NewResource(env, "r", capacity)
			checks := 0
			check := func() {
				t.Helper()
				r.account()
				queued := 0.0
				for _, w := range r.waiters[r.wHead:] {
					queued += env.now - w.since
				}
				want := r.waitTotal + queued
				if math.Abs(r.qIntegral-want) > 1e-9*math.Max(math.Abs(r.qIntegral), math.Abs(want)) {
					t.Fatalf("capacity %d seed %d at t=%v: ∫queue dt = %v, waits = %v (%v granted + %v queued)",
						capacity, seed, env.now, r.qIntegral, want, r.waitTotal, queued)
				}
				checks++
			}
			for i := 0; i < 40; i++ {
				n := 1 + rnd.Intn(capacity)
				arrive, hold, rounds := rnd.Float64()*20, rnd.Float64()*3, 1+rnd.Intn(4)
				if rnd.Intn(2) == 0 {
					env.Go("proc", func(p *Proc) {
						p.Sleep(arrive)
						for k := 0; k < rounds; k++ {
							r.Acquire(p, n)
							p.Sleep(hold)
							r.Release(n)
						}
					})
					continue
				}
				env.Schedule(arrive, func() {
					r.AcquireThen(n, func() {
						env.Schedule(hold, func() { r.Release(n) })
					})
				})
			}
			for k := 0; k < 60; k++ {
				env.Schedule(rnd.Float64()*40, check)
			}
			env.Run(Forever)
			check()
			if r.QueueLen() != 0 || r.InUse() != 0 || r.grants == 0 || checks != 61 {
				t.Fatalf("capacity %d seed %d: %d queued, %d in use, %d grants, %d checks", capacity, seed, r.QueueLen(), r.InUse(), r.grants, checks)
			}
			env.Close()
		}
	}
}
