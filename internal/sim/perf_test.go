package sim

import (
	"strings"
	"testing"
)

// The kernel's steady-state scheduling paths must not allocate: events
// are pooled, wakeups carry the process on the event instead of a
// closure, and resource waiters are recycled. These guards pin the
// allocation count at zero so a regression fails loudly.

func TestScheduleAllocFree(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	// Warm the pool: one event is allocated on first use, then recycled.
	env.Schedule(0, fn)
	env.Run(Forever)
	allocs := testing.AllocsPerRun(100, func() {
		env.Schedule(0, fn)
		env.Run(Forever)
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestSleepChainAllocFree(t *testing.T) {
	// A process sleeping in a loop is the kernel's most common block/
	// resume pattern; after warmup each iteration must be allocation-free
	// (the wakeup rides the pooled event's Proc field, not a closure).
	env := NewEnv()
	var allocs float64
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(1) // warm the event pool
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(1) })
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("Sleep steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestResourceAcquireAllocFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 2)
	// Warm up: first acquire allocates the waiter record and queue array.
	env.Go("warm", func(p *Proc) {
		res.Acquire(p, 1)
		res.Release(1)
	})
	env.Run(Forever)
	var allocs float64
	env.Go("measure", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			res.Acquire(p, 1)
			res.Release(1)
		})
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("uncontended Acquire/Release allocates %.1f/op, want 0", allocs)
	}
}

// A Put that hands its item to a blocked getter, and a Put/Get pair
// through the buffer, reuse the recycled getter record and both FIFOs'
// backing arrays, so neither allocates once warm.
func TestQueuePutGetAllocFree(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env)
	key := strings.Repeat("k", 3)
	put := func() { q.Put(key) }
	var allocs float64
	env.Go("getter", func(p *Proc) {
		cycle := func() {
			env.Schedule(1, put)
			q.Get(p) // blocks until put hands over the key
			q.Put(key)
			q.Get(p)
		}
		cycle()
		allocs = testing.AllocsPerRun(100, cycle)
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("blocked-getter and buffered Put/Get allocate %.1f/cycle, want 0", allocs)
	}
}

// Spawning on a recycled shell is the directors' per-VM path: Go takes a
// finished shell off the free list and schedules its wakeup on a pooled
// event, with no closure, so a non-capturing body costs nothing to start.
func TestSpawnOnRecycledShellAllocFree(t *testing.T) {
	env := NewEnv()
	body := func(p *Proc) { p.Sleep(1) }
	// Warm up: the first Go builds the shell, which returns to the free
	// list when its body does.
	env.Go("warm", body)
	env.Run(Forever)
	allocs := testing.AllocsPerRun(100, func() {
		env.Go("spawn", body)
		env.Run(Forever)
	})
	if allocs != 0 {
		t.Fatalf("Go on a recycled shell + Run allocates %.1f/op, want 0", allocs)
	}
}

// A deferred start on a warm Env takes a pooled event and a recycled
// shell: the body rides on the event, so nothing allocates.
func TestGoAfterOnRecycledShellAllocFree(t *testing.T) {
	env := NewEnv()
	body := func(p *Proc) { p.Sleep(1) }
	env.GoAfter(1, body)
	env.Run(Forever)
	allocs := testing.AllocsPerRun(100, func() {
		env.GoAfter(1, body)
		env.Run(Forever)
	})
	if allocs != 0 {
		t.Fatalf("GoAfter on a recycled shell + Run allocates %.1f/op, want 0", allocs)
	}
}

// Same-time FIFO queue: ordering must match the heap exactly when events
// at the current instant interleave with earlier-scheduled events at the
// same timestamp, including cancellations.
func TestNowQueueInterleavesWithHeap(t *testing.T) {
	env := NewEnv()
	var got []int
	// Heap events at t=5, seq 0,1,2.
	for i := 0; i < 3; i++ {
		i := i
		env.Schedule(5, func() {
			got = append(got, i)
			// Schedule same-time events from within t=5: they must run
			// after every already-scheduled t=5 event, in FIFO order.
			env.Schedule(0, func() { got = append(got, 10+i) })
		})
	}
	env.Run(Forever)
	want := []int{0, 1, 2, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNowQueueStop(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(1, func() {
		a := env.Schedule(0, func() { got = append(got, 1) })
		env.Schedule(0, func() { got = append(got, 2) })
		if !a.Stop() {
			t.Error("Stop on same-time event = false")
		}
		if a.Stop() {
			t.Error("second Stop = true")
		}
	})
	env.Run(Forever)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", env.Pending())
	}
}

// Benchmarks for the kernel hot paths; run with
//
//	go test -bench=Kernel -benchmem ./internal/sim
//
// The allocs/op columns should stay at 0 for the steady-state paths.
// The repo benchmark (bench/) tracks the same paths as its sim.event_ns
// and sim.handoff_ns seams.

func BenchmarkKernelScheduleFire(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Schedule(0, fn)
		env.Run(Forever)
	}
}

func BenchmarkKernelTimerStop(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := env.Schedule(1, fn)
		tm.Stop()
	}
}

func BenchmarkKernelHeapSchedule(b *testing.B) {
	// Future-dated events exercise the heap rather than the same-time
	// queue: schedule a ladder, then drain.
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Schedule(1+Time(i%16), fn)
		if i%16 == 15 {
			env.Run(Forever)
		}
	}
	env.Run(Forever)
}

func BenchmarkKernelProcessPingPong(b *testing.B) {
	// Two processes alternating on a queue: the classic block/resume
	// cycle, two goroutine handoffs plus one wakeup event per Put/Get.
	env := NewEnv()
	q := NewQueue[int](env)
	stop := false
	env.Go("producer", func(p *Proc) {
		for !stop {
			q.Put(1)
			p.Sleep(1)
		}
	})
	var n int
	env.Go("consumer", func(p *Proc) {
		for !stop {
			q.Get(p)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Schedule(Time(b.N), func() { stop = true; env.Stop() })
	env.Run(Forever)
	b.StopTimer()
	// Let the blocked processes finish.
	stop = true
	q.Put(1)
	env.Run(Forever)
}

func BenchmarkKernelSpawnFresh(b *testing.B) {
	// Every Go builds a new shell: each finished shell is taken off the
	// free list, and the Env is closed and replaced in batches with the
	// timer stopped, so the parked coroutines do not pile up.
	env := NewEnv()
	body := func(*Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Go("fresh", body)
		env.Run(Forever)
		env.procFree = env.procFree[:0]
		if i%1024 == 1023 {
			b.StopTimer()
			env.Close()
			env = NewEnv()
			b.StartTimer()
		}
	}
	env.Close()
}

func BenchmarkKernelResourceCycle(b *testing.B) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	b.ReportAllocs()
	var done bool
	env.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			res.Acquire(p, 1)
			p.Sleep(1)
			res.Release(1)
		}
		done = true
	})
	b.ResetTimer()
	env.Run(Forever)
	if !done {
		b.Fatal("worker did not finish")
	}
}
