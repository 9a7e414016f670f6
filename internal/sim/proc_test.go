package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// settledGoroutines polls until at most want goroutines remain or a
// second passes, and returns the last count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

func TestCloseEndsEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv()
	r := NewResource(env, "r", 1)
	q := NewQueue[int](env)
	s := NewSignal(env)
	for i := 0; i < 3; i++ {
		env.Go("finished", func(p *Proc) { p.Sleep(1) })
	}
	unwound := 0
	parked := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound++ }()
			block(p)
			t.Error("a parked process resumed")
		}
	}
	env.Go("sleep", parked(func(p *Proc) { p.Sleep(1e9) }))
	env.Go("hold", func(p *Proc) { r.Acquire(p, 1) })
	env.Go("acquire", parked(func(p *Proc) { r.Acquire(p, 1) }))
	env.Go("get", parked(func(p *Proc) { q.Get(p) }))
	env.Go("wait", parked(func(p *Proc) { s.Wait(p) }))
	env.GoAfter(1e9, func(p *Proc) { t.Error("a pending GoAfter started") })
	env.Run(10)
	if env.nproc != 4 || runtime.NumGoroutine() <= base {
		t.Fatalf("before Close: %d live processes, %d goroutines (%d at start)", env.nproc, runtime.NumGoroutine(), base)
	}
	env.Close()
	if unwound != 4 {
		t.Fatalf("Close unwound %d parked bodies, want 4", unwound)
	}
	if n := settledGoroutines(base); n != base {
		t.Fatalf("%d goroutines after Close, %d at start", n, base)
	}
	env.Close()
	if unwound != 4 {
		t.Fatalf("a second Close unwound again (%d)", unwound)
	}
}

func TestCloseDuringRunPanics(t *testing.T) {
	env := NewEnv()
	var got any
	env.Schedule(1, func() {
		defer func() { got = recover() }()
		env.Close()
	})
	env.Run(Forever)
	if got == nil {
		t.Fatal("Close inside Run did not panic")
	}
	env.Close()
	func() {
		defer func() { got = recover() }()
		env.Run(Forever)
	}()
	if got == nil {
		t.Fatal("Run after Close did not panic")
	}
}

// A process that ends with GoAfter(d, rest) must run rest exactly where
// "Sleep(d); rest" would have: same time, same place among the events
// scheduled meanwhile. Integer delays force ties at every instant, and
// resource waits and plain events interleave with the chains.
func TestGoAfterFiresInSleepsSlot(t *testing.T) {
	trace := func(deferred bool) []string {
		env := NewEnv()
		r := rand.New(rand.NewSource(7))
		res := NewResource(env, "r", 2)
		var log []string
		var step func(id, n int) func(*Proc)
		step = func(id, n int) func(*Proc) {
			return func(p *Proc) {
				log = append(log, fmt.Sprintf("t=%v p%d.%d", p.Now(), id, n))
				if r.Intn(2) == 0 {
					res.Acquire(p, 1)
					p.Sleep(Time(r.Intn(2)))
					res.Release(1)
				}
				if n == 4 {
					return
				}
				d := Time(r.Intn(3))
				if deferred {
					env.GoAfter(d, step(id, n+1))
					return
				}
				p.Sleep(d)
				step(id, n+1)(p)
			}
		}
		for i := 0; i < 16; i++ {
			i := i
			env.Go("chain", step(i, 0))
			env.Schedule(Time(r.Intn(4)), func() { log = append(log, fmt.Sprintf("t=%v e%d", env.Now(), i)) })
		}
		env.Run(Forever)
		return log
	}
	want, got := trace(false), trace(true)
	if !slices.Equal(got, want) {
		t.Fatalf("GoAfter order differs from Sleep's:\ngot  %v\nwant %v", got, want)
	}
}
