package sim

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// traceModel builds a small contended model — three workers looping over
// a two-slot resource with distinct hold times — and returns the trace
// log the workers append to. The exact interleaving exercises the
// kernel's FIFO ordering, so any drift between drivers shows up.
func traceModel(env *Env) *[]string {
	log := &[]string{}
	res := NewResource(env, "slots", 2)
	for i := 0; i < 3; i++ {
		i := i
		hold := Time(i+1) * 0.7
		env.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for n := 0; n < 20; n++ {
				res.Acquire(p, 1)
				p.Sleep(hold)
				res.Release(1)
				*log = append(*log, fmt.Sprintf("w%d n%d t%.3f", i, n, p.Now()))
				p.Sleep(0.3)
			}
		})
	}
	return log
}

// TestPacedNoInjectionMatchesBatch pins the identity with a batch run:
// with no injected commands, quantum batching merely splits Env.Run into
// consecutive horizons, so the virtual-time trace is unchanged for any
// quantum size.
func TestPacedNoInjectionMatchesBatch(t *testing.T) {
	ref := NewEnv()
	refLog := traceModel(ref)
	refEnd := ref.Run(100)

	for _, quantum := range []Time{0.1, 0.25, 1, 7.3, 1000} {
		env := NewEnv()
		log := traceModel(env)
		d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: quantum})
		end := d.Run(100)
		if end != refEnd {
			t.Fatalf("quantum %v: final time %v, want %v", quantum, end, refEnd)
		}
		if !reflect.DeepEqual(*log, *refLog) {
			t.Fatalf("quantum %v: trace diverged from batch", quantum)
		}
	}
}

// TestPacedScriptedInjectionDeterministic pins that a paced run is a
// pure function of its injection schedule: model events submit at the
// same fixed virtual times in two runs of a free-running driver, and
// the virtual-time traces are bit-identical.
func TestPacedScriptedInjectionDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		log := traceModel(env)
		d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 0.5})
		for i := 0; i < 10; i++ {
			i := i
			env.Schedule(Time(i)*3.1, func() {
				d.Submit(func(env *Env) {
					*log = append(*log, fmt.Sprintf("inject%d t%.3f", i, env.Now()))
					env.Go(fmt.Sprintf("inj%d", i), func(p *Proc) {
						p.Sleep(0.9)
						*log = append(*log, fmt.Sprintf("inj%d done t%.3f", i, p.Now()))
					})
				}, nil)
			})
		}
		d.Run(60)
		return *log
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scripted paced runs diverged:\n%v\n%v", a, b)
	}
	// Sanity: the injections actually happened.
	var saw int
	for _, l := range a {
		if len(l) >= 6 && l[:6] == "inject" {
			saw++
		}
	}
	if saw != 10 {
		t.Fatalf("expected 10 injections in trace, saw %d", saw)
	}
}

// TestPacedInjectionLandsAtBoundary checks the quantization contract: a
// command submitted at virtual time v runs at the first boundary >= v,
// never earlier, and commands sharing a boundary run in submission
// order. The first is submitted before Run, so it lands at the boundary
// at 0; the rest are submitted by model events.
func TestPacedInjectionLandsAtBoundary(t *testing.T) {
	env := NewEnv()
	d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 2})
	var got []string
	submit := func(i int) {
		d.Submit(func(env *Env) { got = append(got, fmt.Sprintf("%d@%v", i, env.Now())) }, nil)
	}
	submit(0)
	for i, v := range []Time{0.1, 2, 3.5, 9.99} {
		env.Schedule(v, func() { submit(i + 1) })
	}
	d.Run(20)
	want := []string{"0@0", "1@2", "2@2", "3@4", "4@10"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("injections %v, want %v", got, want)
	}
}

// TestPacedResubmitLandsAtNextBoundary checks that a command submitted
// by an injected command waits for the following boundary instead of
// running in the batch that is being injected.
func TestPacedResubmitLandsAtNextBoundary(t *testing.T) {
	env := NewEnv()
	d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 2})
	var at []Time
	var hop func(env *Env)
	hop = func(env *Env) {
		at = append(at, env.Now())
		if len(at) < 3 {
			d.Submit(hop, nil)
		}
	}
	d.Submit(hop, nil)
	d.Run(20)
	want := []Time{0, 2, 4}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("injection times %v, want %v", at, want)
	}
}

// TestPacedGracefulStop verifies Stop from another goroutine ends Run at
// a quantum boundary and rejects a still-pending command exactly once.
// The injected command at boundary 0 queues a second one and holds the
// boundary until the test goroutine has called Stop, so the second is
// pending when the stop takes effect.
func TestPacedGracefulStop(t *testing.T) {
	env := NewEnv()
	// An immortal heartbeat so the heap never drains.
	var beat func()
	beat = func() { env.Schedule(1, beat) }
	env.Schedule(1, beat)

	d := NewPaced(env, PacedConfig{Ratio: 1000, QuantumS: 1})
	var rejected int
	held, release := make(chan struct{}), make(chan struct{})
	d.Submit(func(*Env) {
		d.Submit(func(*Env) { t.Error("command pending at Stop ran") },
			func() { rejected++ })
		close(held)
		<-release
	}, nil)

	done := make(chan Time, 1)
	go func() { done <- d.Run(Forever) }()
	<-held
	d.Stop()
	close(release)
	select {
	case end := <-done:
		if end != 1 {
			t.Fatalf("Run stopped at %v, want the boundary at 1", end)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if rejected != 1 {
		t.Fatalf("pending command rejected %d times, want 1", rejected)
	}
	if ok := d.Submit(func(*Env) {}, nil); ok {
		t.Fatal("Submit accepted after stop")
	}
	if ok := d.Do(func(*Env) {}); ok {
		t.Fatal("Do succeeded after stop")
	}
}

// TestPacedDoRoundTrip verifies the synchronous read path: Do observes
// state from inside a boundary and returns once its closure ran.
func TestPacedDoRoundTrip(t *testing.T) {
	env := NewEnv()
	var beat func()
	beat = func() { env.Schedule(0.5, beat) }
	env.Schedule(0.5, beat)

	d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var seen Time
	go func() {
		defer wg.Done()
		if !d.Do(func(env *Env) { seen = env.Now() }) {
			t.Error("Do failed on a running driver")
		}
		d.Stop()
	}()
	d.Run(Forever)
	wg.Wait()
	if seen < 0 {
		t.Fatalf("Do observed nonsense time %v", seen)
	}
}

// TestPacedWallPacing checks the wall mapping with a stubbed clock: at
// ratio R the driver asks to sleep ~quantum/R per quantum.
func TestPacedWallPacing(t *testing.T) {
	env := NewEnv()
	var beat func()
	beat = func() { env.Schedule(1, beat) }
	env.Schedule(1, beat)

	d := NewPaced(env, PacedConfig{Ratio: 10, QuantumS: 1})
	var fake time.Time // zero base; advance on sleep
	var slept time.Duration
	d.now = func() time.Time { return fake }
	d.sleep = func(dt time.Duration) { slept += dt; fake = fake.Add(dt) }
	d.Run(50) // 50 virtual s at 10 v/s per wall s => 5 wall s
	if want := 5 * time.Second; slept != want {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	if d.MaxLag() > 0 {
		t.Fatalf("stubbed clock never lags, got %v", d.MaxLag())
	}
}

// TestPacedVirtualNow pins the boundary clock: after Run to a horizon,
// VirtualNow reports it.
func TestPacedVirtualNow(t *testing.T) {
	env := NewEnv()
	d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 0.25})
	if d.VirtualNow() != 0 {
		t.Fatalf("fresh driver VirtualNow = %v", d.VirtualNow())
	}
	d.Run(12.5)
	if d.VirtualNow() != 12.5 {
		t.Fatalf("VirtualNow = %v, want 12.5", d.VirtualNow())
	}
}

// TestPacedSubmitStopRace pins the Submit/Stop contract under
// contention: a Submit that lands while Stop is draining must invoke
// exactly one of fn or reject — never both (double-fire) and never
// neither (silent drop) — and once Submit has returned false the driver
// must refuse every later submission. Run under -race in CI.
func TestPacedSubmitStopRace(t *testing.T) {
	const (
		rounds   = 10
		workers  = 8
		perWkr   = 64
		commands = workers * perWkr
	)
	for round := 0; round < rounds; round++ {
		env := NewEnv()
		env.Go("tick", func(p *Proc) {
			for p.Now() < 1e4 {
				p.Sleep(0.25)
			}
		})
		d := NewPaced(env, PacedConfig{Ratio: 0, QuantumS: 0.25})
		counts := make([]atomic.Int32, commands)
		var accepted [workers * perWkr]atomic.Bool
		runDone := make(chan struct{})
		go func() {
			d.Run(1e4)
			close(runDone)
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				refused := false
				for i := 0; i < perWkr; i++ {
					idx := w*perWkr + i
					ok := d.Submit(
						func(*Env) { counts[idx].Add(1) },
						func() { counts[idx].Add(1) },
					)
					accepted[idx].Store(ok)
					if !ok {
						refused = true
					} else if refused {
						t.Errorf("round %d: Submit accepted after an earlier refusal", round)
						return
					}
					if w == 0 && i == perWkr/4 {
						d.Stop()
					}
				}
			}()
		}
		wg.Wait()
		<-runDone
		for idx := 0; idx < commands; idx++ {
			got := counts[idx].Load()
			if accepted[idx].Load() && got != 1 {
				t.Fatalf("round %d: accepted command %d ran %d callbacks, want exactly 1", round, idx, got)
			}
			if !accepted[idx].Load() && got != 0 {
				t.Fatalf("round %d: refused command %d ran %d callbacks, want 0", round, idx, got)
			}
		}
	}
}
