package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// waiterTrace drives a small resource with the clients the fuzzer's bytes
// describe and logs every grant, release and follow-up event with its
// time and the kernel's sequence counter. Byte 0 sizes the resource;
// each client takes three more: its mode and request size, its arrival
// and its hold time. With callbacks set, a client whose mode bit is set
// waits through AcquireThen and parks, and a callback releases; with it
// unset every client is a process that Acquires and Sleeps, the
// reference the callbacks must reproduce event for event.
func waiterTrace(data []byte, callbacks bool) []string {
	env := NewEnv()
	capacity := 1 + int(data[0]%3)
	r := NewResource(env, "r", capacity)
	var log []string
	note := func(what string, id int) {
		log = append(log, fmt.Sprintf("t=%v seq=%d %s%d", env.now, env.seq, what, id))
	}
	for i, c := 0, data[1:]; len(c) >= 3 && i < 32; i, c = i+1, c[3:] {
		n := 1 + int(c[0]>>1)%capacity
		arrive, hold := Time(c[1]%4), Time(c[2]%3)
		granted := func() {
			note("grant", i)
			env.Schedule(0, func() { note("after", i) })
		}
		if callbacks && c[0]&1 == 1 {
			env.Go("cb", func(p *Proc) {
				p.Sleep(arrive)
				r.AcquireThen(n, func() {
					granted()
					env.Schedule(hold, func() {
						r.Release(n)
						note("release", i)
						env.Unpark(p)
					})
				})
				p.Park()
				note("done", i)
			})
			continue
		}
		env.Go("proc", func(p *Proc) {
			p.Sleep(arrive)
			r.Acquire(p, n)
			granted()
			p.Sleep(hold)
			r.Release(n)
			note("release", i)
			note("done", i)
		})
	}
	for k := 0; k < 4; k++ {
		env.Schedule(Time(k), func() { note("tick", k) })
	}
	env.Run(Forever)
	if env.nproc != 0 || r.InUse() != 0 || r.QueueLen() != 0 {
		log = append(log, fmt.Sprintf("leftover: %d processes, %d in use, %d queued", env.nproc, r.InUse(), r.QueueLen()))
	}
	env.Close()
	return log
}

// FuzzResourceWaiters checks that AcquireThen waiters are granted in the
// same order, at the same times and in the same (time, sequence) slots
// as process waiters, and that the events they schedule fall where the
// processes' would: the whole logged trace, sequence numbers included,
// equals the all-process reference.
func FuzzResourceWaiters(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 1, 2, 0, 0, 5, 1, 2, 1, 1, 1})
	f.Add([]byte{2, 5, 1, 0, 4, 1, 0, 3, 0, 2, 1, 2, 2, 7, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		want, got := waiterTrace(data, false), waiterTrace(data, true)
		if !slices.Equal(got, want) {
			t.Fatalf("callback waiters diverge from process waiters:\ngot  %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	})
}

func TestUnparkPanicsUnlessParkedFromACallback(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	env := NewEnv()
	var sleeper, parked *Proc
	env.Go("sleeper", func(p *Proc) { sleeper = p; p.Sleep(10) })
	env.Go("parked", func(p *Proc) { parked = p; p.Park() })
	env.Schedule(1, func() { mustPanic("Unpark of a sleeping process", func() { env.Unpark(sleeper) }) })
	env.Go("caller", func(p *Proc) {
		p.Sleep(2)
		mustPanic("Unpark from inside a process", func() { env.Unpark(parked) })
	})
	resumed := false
	env.Schedule(3, func() {
		env.Unpark(parked)
		resumed = true
		mustPanic("a second Unpark", func() { env.Unpark(parked) })
	})
	env.Run(Forever)
	if !resumed || env.nproc != 0 {
		t.Fatalf("resumed=%v, %d processes left", resumed, env.nproc)
	}
	env.Close()
}

func TestCloseUnwindsAParkedProcess(t *testing.T) {
	env := NewEnv()
	deferred := false
	env.Go("parked", func(p *Proc) {
		defer func() { deferred = true }()
		p.Park()
		t.Error("a parked process resumed")
	})
	env.Run(Forever)
	if env.nproc != 1 || deferred {
		t.Fatalf("before Close: %d processes, deferred=%v", env.nproc, deferred)
	}
	env.Close()
	if !deferred {
		t.Fatal("Close did not run the parked process's defers")
	}
}

// A queued AcquireThen recycles its waiter record and schedules its
// callback on a pooled event, so the steady state allocates nothing.
func TestAcquireThenAllocFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	release := func() { res.Release(1) }
	cycle := func() {
		res.AcquireThen(1, func() {})
		res.AcquireThen(1, release)
		res.Release(1)
		env.Run(Forever)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("AcquireThen allocates %.1f/cycle, want 0", allocs)
	}
}

// yieldTrace runs the processes the fuzzer's bytes describe and logs
// every step with its time and the kernel's sequence counter. Each
// process takes two bytes: its start time and step count, then its step
// ops, two bits per step. A step is a zero-delay pause, a pause after
// another event was scheduled for the same instant, a pause after Stop,
// or a one-second sleep; with yield set a pause calls Yield, without it
// Sleep(0), the reference Yield must reproduce event for event. Run is
// called again after every Stop until nothing is pending, and each
// return is logged, so a Yield that ran on past a Stop shows.
func yieldTrace(data []byte, yield bool) []string {
	env := NewEnv()
	var log []string
	note := func(what string, id, step int) {
		log = append(log, fmt.Sprintf("t=%v seq=%d %s%d.%d", env.now, env.seq, what, id, step))
	}
	for i, c := 0, data; len(c) >= 2 && i < 16; i, c = i+1, c[2:] {
		start, ops := Time(c[0]%3), c[1]
		steps := 1 + int(c[0]>>2)%4
		env.Schedule(start, func() { note("tick", i, 0) })
		env.Go("p", func(p *Proc) {
			p.Sleep(start)
			for s := 0; s < steps; s++ {
				note("step", i, s)
				switch ops >> (2 * s) & 3 {
				case 1:
					env.Schedule(0, func() { note("same-instant", i, s) })
				case 2:
					env.Stop()
				case 3:
					p.Sleep(1)
					continue
				}
				if yield {
					p.Yield()
				} else {
					p.Sleep(0)
				}
			}
			note("done", i, steps)
		})
	}
	for runs := 0; env.Pending() > 0 && runs < 100; runs++ {
		env.Run(Forever)
		note("run returned", runs, 0)
	}
	if env.nproc != 0 {
		log = append(log, fmt.Sprintf("leftover: %d processes", env.nproc))
	}
	env.Close()
	return log
}

// FuzzYieldMatchesSleep0 checks that Yield is Sleep(0) to every
// observer: the same steps at the same times in the same (time,
// sequence) slots, with and without other events due at the instant,
// and when Stop was called in the current event.
func FuzzYieldMatchesSleep0(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 0b0101, 1, 0b1111, 8, 0b0010})
	f.Add([]byte{12, 0b10011001, 13, 0b01100110, 2, 0b11})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, got := yieldTrace(data, false), yieldTrace(data, true)
		if !slices.Equal(got, want) {
			t.Fatalf("Yield diverges from Sleep(0):\ngot  %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	})
}

// A process alone at its instant yields without a switch; one behind
// another due event switches like Sleep(0).
func TestYieldSwitchesOnlyBehindDueEvents(t *testing.T) {
	env := NewEnv()
	var alone, behind int64
	env.Go("p", func(p *Proc) {
		w := env.wakes
		p.Yield()
		alone = env.wakes - w
		env.Schedule(0, func() {})
		w = env.wakes
		p.Yield()
		behind = env.wakes - w
	})
	env.Run(Forever)
	env.Close()
	if alone != 0 || behind != 1 {
		t.Fatalf("Yield switched %d times alone and %d times behind a due event, want 0 and 1", alone, behind)
	}
}
