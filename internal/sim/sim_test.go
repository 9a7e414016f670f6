package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(3, func() { got = append(got, 3) })
	env.Schedule(1, func() { got = append(got, 1) })
	env.Schedule(2, func() { got = append(got, 2) })
	end := env.Run(Forever)
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(5, func() { got = append(got, i) })
	}
	env.Run(Forever)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("simultaneous events not FIFO: %v", got)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	env := NewEnv()
	fired := false
	env.Schedule(10, func() { fired = true })
	end := env.Run(4)
	if end != 4 || fired {
		t.Fatalf("end=%v fired=%v, want end=4 fired=false", end, fired)
	}
	// Resume: the event is still pending.
	end = env.Run(Forever)
	if end != 10 || !fired {
		t.Fatalf("after resume end=%v fired=%v", end, fired)
	}
}

// Run never moves the clock backwards: not to an earlier horizon, and
// not from a stopped run's horizon back to the events it left pending.
func TestRunNeverRewindsClock(t *testing.T) {
	env := NewEnv()
	env.Schedule(100, func() {})
	env.Run(50)
	if end := env.Run(10); end != 50 {
		t.Fatalf("Run(10) after Run(50) = %v, want 50", end)
	}
	var at Time
	env.Schedule(0, func() { at = env.Now() })
	env.Run(60)
	if at != 50 {
		t.Fatalf("delay-0 event fired at %v, want 50", at)
	}

	env = NewEnv()
	env.Schedule(1, env.Stop)
	var fired []Time
	env.Schedule(5, func() { fired = append(fired, env.Now()) })
	if end := env.Run(10); end != 1 {
		t.Fatalf("stopped Run(10) = %v, want 1", end)
	}
	if end := env.Run(Forever); end != 5 || len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("resumed Run = %v with events at %v, want 5 and [5]", end, fired)
	}
}

func TestEventAtExactHorizonRuns(t *testing.T) {
	env := NewEnv()
	fired := false
	env.Schedule(7, func() { fired = true })
	env.Run(7)
	if !fired {
		t.Fatal("event at exact horizon did not run")
	}
}

// An invalid delay (negative or NaN) panics in every call that takes
// one; +Inf is a valid "never".
func TestInvalidDelaysPanic(t *testing.T) {
	calls := []struct {
		name string
		call func(env *Env, d Time)
	}{
		{"Schedule", func(env *Env, d Time) { env.Schedule(d, func() {}) }},
		{"GoAfter", func(env *Env, d Time) { env.GoAfter(d, func(*Proc) {}) }},
		{"Sleep", func(env *Env, d Time) {
			env.Go("sleeper", func(p *Proc) { p.Sleep(d) })
			env.Run(Forever)
		}},
	}
	for _, tc := range []struct {
		d      Time
		panics bool
	}{{-1, true}, {math.Inf(-1), true}, {math.NaN(), true}, {0, false}, {math.Inf(1), false}} {
		for _, c := range calls {
			env := NewEnv()
			var got any
			func() {
				defer func() { got = recover() }()
				c.call(env, tc.d)
			}()
			if (got != nil) != tc.panics {
				t.Errorf("%s(%v): panic %v, want panic %v", c.name, tc.d, got, tc.panics)
			}
			if math.IsNaN(env.Now()) {
				t.Errorf("%s(%v): the clock is NaN", c.name, tc.d)
			}
			env.Close()
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	env.Schedule(-1, func() {})
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	panicked := false
	env.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	env.Run(Forever)
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestTimerStop(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.Schedule(5, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	env.Run(Forever)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if env.Pending() != 0 {
		t.Fatalf("pending = %d", env.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	env := NewEnv()
	tm := env.Schedule(1, func() {})
	env.Run(Forever)
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestEnvStop(t *testing.T) {
	env := NewEnv()
	var count int
	for i := 1; i <= 5; i++ {
		env.Schedule(Time(i), func() {
			count++
			if count == 2 {
				env.Stop()
			}
		})
	}
	end := env.Run(Forever)
	if count != 2 || end != 2 {
		t.Fatalf("count=%d end=%v, want 2, 2", count, end)
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var wakes []Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(1)
		wakes = append(wakes, p.Now())
		p.Sleep(2.5)
		wakes = append(wakes, p.Now())
	})
	env.Run(Forever)
	if len(wakes) != 2 || wakes[0] != 1 || wakes[1] != 3.5 {
		t.Fatalf("wakes = %v", wakes)
	}
	if env.nproc != 0 {
		t.Fatalf("leaked %d procs", env.nproc)
	}
}

func TestProcInterleaving(t *testing.T) {
	env := NewEnv()
	var trace []string
	spawn := func(name string, period Time, n int) {
		env.Go(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(period)
				trace = append(trace, name)
			}
		})
	}
	spawn("a", 2, 3) // wakes at 2,4,6
	spawn("b", 3, 2) // wakes at 3,6
	env.Run(Forever)
	// At t=6 both wake; b's wake event was scheduled earlier (t=3 vs t=4),
	// so ties break in schedule order.
	want := []string{"a", "b", "a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		env.Go("worker", func(p *Proc) {
			res.Acquire(p, 1)
			p.Sleep(10)
			res.Release(1)
			done = append(done, p.Now())
		})
	}
	env.Run(Forever)
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		env.Go("worker", func(p *Proc) {
			res.Acquire(p, 1)
			p.Sleep(10)
			res.Release(1)
			done = append(done, p.Now())
		})
	}
	env.Run(Forever)
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	// A large request at the head must not be bypassed by later small ones.
	env := NewEnv()
	res := NewResource(env, "r", 2)
	var order []string
	env.Go("small0", func(p *Proc) {
		res.Acquire(p, 1)
		p.Sleep(5)
		res.Release(1)
		order = append(order, "small0")
	})
	env.Go("big", func(p *Proc) {
		p.Sleep(1) // arrive second
		res.Acquire(p, 2)
		order = append(order, "big")
		res.Release(2)
	})
	env.Go("small1", func(p *Proc) {
		p.Sleep(2) // arrive third; one unit is free but big is ahead
		res.Acquire(p, 1)
		order = append(order, "small1")
		res.Release(1)
	})
	env.Run(Forever)
	want := []string{"small0", "big", "small1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceGrantAtSameInstantAsBlock(t *testing.T) {
	// Regression: a waiter that blocks and is granted at the same virtual
	// time (release at t=0) must still be woken.
	env := NewEnv()
	res := NewResource(env, "r", 1)
	ran := false
	env.Go("holder", func(p *Proc) {
		res.Acquire(p, 1)
		// Release at the same instant the waiter blocks.
		res.Release(1)
	})
	env.Go("waiter", func(p *Proc) {
		res.Acquire(p, 1)
		ran = true
		res.Release(1)
	})
	env.Run(Forever)
	if !ran {
		t.Fatal("same-instant grant lost")
	}
}

func TestResourceStats(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	for i := 0; i < 2; i++ {
		env.Go("w", func(p *Proc) {
			res.Acquire(p, 1)
			p.Sleep(10)
			res.Release(1)
		})
	}
	env.Run(Forever) // ends at t=20, busy the whole time
	s := res.Stats()
	if s.Grants != 2 {
		t.Fatalf("grants = %d", s.Grants)
	}
	if s.Utilization < 0.99 || s.Utilization > 1.01 {
		t.Fatalf("utilization = %v, want ~1", s.Utilization)
	}
	// Second worker waited 10s; mean wait = 5s.
	if s.MeanWait < 4.99 || s.MeanWait > 5.01 {
		t.Fatalf("mean wait = %v, want ~5", s.MeanWait)
	}
	if s.MaxQueueLen != 1 {
		t.Fatalf("max queue = %d", s.MaxQueueLen)
	}
}

func TestResourceAcquirePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 2)
	panicked := false
	env.Go("w", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		res.Acquire(p, 3)
	})
	env.Run(Forever)
	if !panicked {
		t.Fatal("over-capacity acquire did not panic")
	}
}

func TestReleaseTooManyPanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.Release(1)
}

func TestQueuePutGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got []int
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			q.Put(i)
		}
	})
	env.Run(Forever)
	for i, v := range []int{0, 1, 2} {
		if got[i] != v {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueBufferedBeforeGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env)
	q.Put("x")
	q.Put("y")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	var got []string
	env.Go("c", func(p *Proc) {
		got = append(got, q.Get(p), q.Get(p))
	})
	env.Run(Forever)
	if got[0] != "x" || got[1] != "y" {
		t.Fatalf("got = %v", got)
	}
}

func TestQueueMultipleGettersFIFO(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got []string
	for _, name := range []string{"g0", "g1", "g2"} {
		name := name
		env.Go(name, func(p *Proc) {
			v := q.Get(p)
			got = append(got, name+":"+string(rune('0'+v)))
		})
	}
	env.Go("producer", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 3; i++ {
			q.Put(i)
		}
	})
	env.Run(Forever)
	want := []string{"g0:0", "g1:1", "g2:2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	var woke int
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(5)
		if len(s.waiters) != 3 {
			t.Errorf("waiters = %d", len(s.waiters))
		}
		s.Fire()
	})
	env.Run(Forever)
	if woke != 3 {
		t.Fatalf("woke = %d", woke)
	}
	if s.Fires() != 1 {
		t.Fatalf("fires = %d", s.Fires())
	}
}

func TestSignalOnlyReleasesCurrentWaiters(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	var woke []string
	env.Go("early", func(p *Proc) {
		s.Wait(p)
		woke = append(woke, "early")
	})
	env.Go("firer", func(p *Proc) {
		p.Sleep(1)
		s.Fire()
	})
	env.Go("late", func(p *Proc) {
		p.Sleep(2) // waits after the fire; must stay blocked
		s.Wait(p)
		woke = append(woke, "late")
	})
	env.Run(Forever)
	if len(woke) != 1 || woke[0] != "early" {
		t.Fatalf("woke = %v", woke)
	}
	if len(s.waiters) != 1 {
		t.Fatalf("waiters = %d", len(s.waiters))
	}
}

// TestDeterminism runs a randomized mixed scenario twice with the same seed
// and requires identical traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		env := NewEnv()
		res := NewResource(env, "r", 3)
		q := NewQueue[Time](env)
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		for i := 0; i < 20; i++ {
			d := rng.Float64() * 10
			env.Go("p", func(p *Proc) {
				p.Sleep(d)
				res.Acquire(p, 1)
				p.Sleep(1)
				res.Release(1)
				q.Put(p.Now())
			})
		}
		env.Go("drain", func(p *Proc) {
			for i := 0; i < 20; i++ {
				trace = append(trace, q.Get(p))
			}
		})
		env.Run(Forever)
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the final clock equals the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		env := NewEnv()
		var fired []Time
		var max Time
		for _, r := range raw {
			d := Time(r) / 7
			if d > max {
				max = d
			}
			env.Schedule(d, func() { fired = append(fired, env.Now()) })
		}
		end := env.Run(Forever)
		if len(raw) > 0 && end != max {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEventOrderWithStops drives the typed heap through random
// interleavings of Schedule, Timer.Stop and partial Runs, with stops aimed
// at the heap's root, its last slot and its middle (the remove paths that
// sift down, truncate, and sift down or up). After every step the heap
// must be well formed with every idx current and Pending must count the
// live events; in the end the events must have fired in exact (time,
// sequence) order, every stopped one left out.
func TestPropertyEventOrderWithStops(t *testing.T) {
	type rec struct {
		at Time
		id int // schedule order: the sequence tie-break
		tm Timer
	}
	checkHeap := func(env *Env) error {
		for i, ev := range env.heap {
			if ev.idx != i {
				return fmt.Errorf("heap[%d].idx = %d", i, ev.idx)
			}
			if i > 0 && ev.before(env.heap[(i-1)/2]) {
				return fmt.Errorf("heap[%d] fires before its parent", i)
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		var (
			all     []*rec
			live    = map[*event]*rec{}
			stopped = map[int]bool{}
			fired   []int
			stops   [3]int // root, last, middle
		)
		stop := func(kind int, ev *event) {
			r := live[ev]
			if !r.tm.Stop() {
				t.Fatalf("seed %d: Stop on a pending event reported false", seed)
			}
			delete(live, ev)
			stopped[r.id] = true
			stops[kind]++
		}
		for step := 0; step < 2000; step++ {
			switch k := rng.Intn(20); {
			case k < 12:
				d := Time(rng.Intn(40)) / 4
				r := &rec{at: env.Now() + d, id: len(all)}
				id := r.id
				r.tm = env.Schedule(d, func() { fired = append(fired, id) })
				all = append(all, r)
				live[r.tm.ev] = r
			case k < 18 && len(env.heap) > 0:
				switch kind := rng.Intn(3); kind {
				case 0:
					stop(kind, env.heap[0])
				case 1:
					stop(kind, env.heap[len(env.heap)-1])
				default:
					stop(kind, env.heap[len(env.heap)/2])
				}
			case k >= 18:
				before := len(fired)
				env.Run(env.Now() + Time(rng.Intn(8))/4)
				for _, id := range fired[before:] {
					delete(live, all[id].tm.ev)
				}
			}
			if err := checkHeap(env); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if env.Pending() != len(live) {
				t.Fatalf("seed %d step %d: Pending = %d, want %d", seed, step, env.Pending(), len(live))
			}
		}
		env.Run(Forever)
		if env.Pending() != 0 {
			t.Fatalf("seed %d: Pending = %d after drain", seed, env.Pending())
		}
		for i, n := range stops {
			if n == 0 {
				t.Fatalf("seed %d: no stop of kind %d (root, last, middle)", seed, i)
			}
		}
		var want []int
		for _, r := range all {
			if !stopped[r.id] {
				want = append(want, r.id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return all[want[i]].at < all[want[j]].at })
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("seed %d: fired %v\nwant (time, sequence) order %v", seed, fired, want)
		}
	}
}

// Property: a capacity-c resource with n unit holders of service time s
// completes the last one at ceil(n/c)*s.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%40) + 1
		c := int(c8%8) + 1
		env := NewEnv()
		res := NewResource(env, "r", c)
		for i := 0; i < n; i++ {
			env.Go("w", func(p *Proc) {
				res.Acquire(p, 1)
				p.Sleep(10)
				res.Release(1)
			})
		}
		end := env.Run(Forever)
		waves := (n + c - 1) / c
		return end == Time(waves)*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerWhen(t *testing.T) {
	env := NewEnv()
	tm := env.Schedule(12.5, func() {})
	if !tm.pending() || tm.ev.at != 12.5 {
		t.Fatalf("pending = %v at %v; want true at 12.5", tm.pending(), tm.ev.at)
	}
	env.Run(Forever)
	if tm.pending() {
		t.Fatal("timer still pending after firing")
	}
}

func TestTimerWhenAfterStop(t *testing.T) {
	env := NewEnv()
	tm := env.Schedule(5, func() {})
	if !tm.Stop() {
		t.Fatal("Stop = false on a pending timer")
	}
	if tm.pending() {
		t.Fatal("timer still pending after Stop")
	}
	var zero Timer
	if zero.pending() {
		t.Fatal("zero Timer reports a pending event")
	}
	if zero.Stop() {
		t.Fatal("zero Timer Stop = true")
	}
}

// A Timer must not cancel the recycled incarnation of its fired event:
// after the event fires and the pooled record is reused by a later
// Schedule, Stop on the stale handle has to report false and leave the
// new event in place.
func TestTimerStaleAfterRecycle(t *testing.T) {
	env := NewEnv()
	first := env.Schedule(1, func() {})
	env.Run(2)
	fired := false
	env.Schedule(1, func() { fired = true }) // reuses the pooled event
	if first.Stop() {
		t.Fatal("stale Stop cancelled a recycled event")
	}
	env.Run(Forever)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	env := NewEnv()
	panicked := false
	env.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		env.Run(10)
	})
	env.Run(Forever)
	if !panicked {
		t.Fatal("re-entrant Run did not panic")
	}
}

// A panic in a process body must reach Env.Run's caller on the caller's
// own goroutine, where it can be recovered, rather than crash the program
// from the process's. The body panics mid-run, after a sleep, with other
// events still pending.
func TestProcPanicReachesRun(t *testing.T) {
	type boom struct{ at Time }
	env := NewEnv()
	env.Schedule(10, func() { t.Error("event after the panic ran") })
	var sent *boom
	env.Go("victim", func(p *Proc) {
		p.Sleep(2)
		sent = &boom{at: p.Now()}
		panic(sent)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run(Forever)
	}()
	if sent == nil || got != any(sent) {
		t.Fatalf("Run's caller recovered %v, want the body's %v", got, sent)
	}
	if sent.at != 2 || env.Now() != 2 {
		t.Fatalf("panicked at %v with the clock at %v, want 2 and 2", sent.at, env.Now())
	}
}

func TestQueueWaitingCount(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	for i := 0; i < 3; i++ {
		env.Go("g", func(p *Proc) { q.Get(p) })
	}
	env.Go("check", func(p *Proc) {
		p.Sleep(1)
		if q.getters.len() != 3 {
			t.Errorf("waiting = %d", q.getters.len())
		}
		for i := 0; i < 3; i++ {
			q.Put(i)
		}
	})
	env.Run(Forever)
	if q.getters.len() != 0 || q.Len() != 0 {
		t.Fatalf("end state: waiting=%d len=%d", q.getters.len(), q.Len())
	}
}

func TestProcNameAndEnv(t *testing.T) {
	env := NewEnv()
	env.Go("worker-7", func(p *Proc) {
		if p.Name() != "worker-7" {
			t.Errorf("name = %q", p.Name())
		}
		if p.Env() != env {
			t.Error("env accessor wrong")
		}
	})
	env.Run(Forever)
}

func TestResourceAccessors(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "slots", 3)
	if r.name != "slots" || r.capacity != 3 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatal("fresh resource accessors wrong")
	}
	env.Go("w", func(p *Proc) {
		r.Acquire(p, 2)
		if r.InUse() != 2 {
			t.Errorf("in use = %d", r.InUse())
		}
		r.Release(2)
	})
	env.Run(Forever)
}

func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewEnv(), "bad", 0)
}

// Property: interleaved sleeps from many procs always end the run at the
// max cumulative sleep, and the clock never goes backwards.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		env := NewEnv()
		prev := Time(0)
		monotone := true
		var max Time
		for _, r := range raw {
			total := Time(0)
			steps := int(r%4) + 1
			d := Time(r%17) + 1
			for i := 0; i < steps; i++ {
				total += d
			}
			if total > max {
				max = total
			}
			env.Go("p", func(p *Proc) {
				for i := 0; i < steps; i++ {
					p.Sleep(d)
					if p.Now() < prev {
						monotone = false
					}
					prev = p.Now()
				}
			})
		}
		end := env.Run(Forever)
		return monotone && end == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A queue that never drains slides its live items down when its buffer
// fills instead of growing it, and keeps them in order.
func TestQueueOrderAcrossBufferReuse(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got []int
	env.Go("c", func(p *Proc) {
		next := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.Put(next)
				next++
			}
			got = append(got, q.Get(p), q.Get(p))
		}
		for q.Len() > 0 {
			got = append(got, q.Get(p))
		}
	})
	env.Run(Forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want items in Put order: %v", i, v, got)
		}
	}
	if len(got) != 150 || cap(q.items.buf) > 64 {
		t.Fatalf("got %d items, buffer capacity %d; want 150 and at most 64", len(got), cap(q.items.buf))
	}
}
