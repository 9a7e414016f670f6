package sim

// The driver seam: who advances the kernel, and how virtual time relates
// to the wall clock.
//
// Every experiment so far ran the kernel free-running — Env.Run eats the
// event heap as fast as the host allows, and nothing outside the
// simulation can get a word in edgewise. That closed-world assumption is
// exactly what a serving front-end has to break: an API server receives
// requests on ordinary goroutines, in wall-clock time, and needs a safe,
// deterministic place to hand them to the single-threaded kernel.
//
// Env.Run itself is the free-running driver every batch artifact uses.
// Paced maps virtual time onto the wall clock at a configurable ratio
// and advances the kernel in fixed virtual-time quanta; between quanta —
// and only there — externally submitted commands are injected. Submit is
// the one injection path: each command joins a FIFO and lands at the
// first boundary at or after the moment it was submitted, in submission
// order. Quantized injection is what keeps the serving plane
// deterministic where it matters: the virtual-time trace is a pure
// function of which quantum each command landed in, so a model process
// that submits at fixed virtual times on a free-running driver
// reproduces the same trace bit-for-bit on every run.
//
// The paced driver also supplies the graceful-stop seam Env.Run lacks:
// Env.Stop ends Run after the current event and may only be called from
// model code, whereas Paced.Stop can be called from any goroutine and
// takes effect at the next quantum boundary — no event is abandoned
// half-fired, and commands still queued are rejected instead of dropped.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// PacedConfig shapes a paced driver.
type PacedConfig struct {
	// Ratio is virtual seconds advanced per wall-clock second (60 means
	// one wall minute simulates one virtual hour). Ratio <= 0 free-runs:
	// no wall pacing at all, but quantum batching and boundary injection
	// still apply — the mode tests and fast experiments use.
	Ratio float64
	// QuantumS is the virtual seconds per batch between injection
	// points. Smaller quanta lower injection latency and tighten the
	// wall mapping; larger quanta amortize loop overhead. Default 0.25.
	QuantumS Time
}

// defaultQuantumS is the injection quantum a zero PacedConfig.QuantumS
// takes.
const defaultQuantumS Time = 0.25

// command is one externally submitted closure awaiting injection.
type command struct {
	fn     func(*Env)
	reject func() // called instead of fn when the driver stops first
}

// Paced advances an Env in fixed virtual-time quanta, holding virtual
// time to the wall clock at cfg.Ratio, and injects externally submitted
// commands at quantum boundaries. Create with NewPaced; Submit, Do, and
// Stop are safe from any goroutine, Run must be called from exactly one.
type Paced struct {
	env *Env
	cfg PacedConfig

	mu      sync.Mutex
	pending []command // FIFO, taken whole at each boundary
	stopped bool      // no further submissions accepted

	stopFlag atomic.Bool
	lastV    atomicTime // virtual time of the last completed boundary

	// wall-pacing diagnostics, owned by the Run goroutine.
	maxLag time.Duration // worst wall-clock schedule slip seen
	// sleep and now are seams for tests; nil means the real clock.
	sleep func(time.Duration)
	now   func() time.Time
}

// atomicTime is an atomic float64 virtual-time cell.
type atomicTime struct{ bits atomic.Uint64 }

func (a *atomicTime) Store(t Time) { a.bits.Store(math.Float64bits(t)) }
func (a *atomicTime) Load() Time   { return math.Float64frombits(a.bits.Load()) }

// NewPaced wraps env in a paced driver. Zero-valued config fields take
// their defaults (QuantumS 0.25; Ratio keeps its zero = free-run, so
// callers wanting wall pacing must say so explicitly).
func NewPaced(env *Env, cfg PacedConfig) *Paced {
	if cfg.QuantumS <= 0 {
		cfg.QuantumS = defaultQuantumS
	}
	d := &Paced{env: env, cfg: cfg, sleep: time.Sleep, now: time.Now}
	d.lastV.Store(env.Now())
	return d
}

// Ratio returns virtual seconds per wall second (0 when free-running).
func (d *Paced) Ratio() float64 { return d.cfg.Ratio }

// VirtualNow returns the virtual time of the last completed quantum
// boundary. Safe from any goroutine; this is the clock API handlers
// read, since Env.Now may be mid-mutation on the driver goroutine.
func (d *Paced) VirtualNow() Time { return d.lastV.Load() }

// MaxLag returns the worst wall-clock slip observed: how far behind its
// wall schedule the driver has fallen when event processing outran the
// pacing budget. Only meaningful after Run returns (it is owned by the
// Run goroutine); zero when free-running.
func (d *Paced) MaxLag() time.Duration { return d.maxLag }

// Submit enqueues fn for injection at the next quantum boundary; a
// command submitted while boundary commands run (from inside an
// injected fn) lands at the boundary after. fn runs on the driver
// goroutine with the kernel paused — it may read model state, call
// env.Go, and schedule events, exactly like model code between events.
// reject (optional) is called instead if the driver stops before the
// command is injected. Submit reports false once the driver has stopped.
func (d *Paced) Submit(fn func(*Env), reject func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return false
	}
	d.pending = append(d.pending, command{fn: fn, reject: reject})
	return true
}

// Do submits fn and blocks until it has run inside a quantum boundary,
// returning false if the driver stopped first. This is the synchronous
// read path: API query handlers use it to take a consistent snapshot of
// model state without racing the kernel.
func (d *Paced) Do(fn func(*Env)) bool {
	done := make(chan bool, 1)
	ok := d.Submit(
		func(env *Env) { fn(env); done <- true },
		func() { done <- false },
	)
	if !ok {
		return false
	}
	return <-done
}

// Stop requests a graceful stop: the driver finishes the quantum it is
// in, rejects every command still pending, and Run returns. Safe from
// any goroutine, idempotent.
func (d *Paced) Stop() { d.stopFlag.Store(true) }

// takeDue removes and returns every pending command, in submission
// order.
func (d *Paced) takeDue() []command {
	d.mu.Lock()
	defer d.mu.Unlock()
	due := d.pending
	d.pending = nil
	return due
}

// drainRejected marks the driver stopped and rejects everything pending.
func (d *Paced) drainRejected() {
	d.mu.Lock()
	rejected := d.pending
	d.pending = nil
	d.stopped = true
	d.mu.Unlock()
	for _, c := range rejected {
		if c.reject != nil {
			c.reject()
		}
	}
}

// Run advances the environment to the horizon in quantum steps, pacing
// virtual time against the wall clock and injecting submitted commands
// at each boundary. It returns the final virtual time. Boundaries fall
// at v0 + k*quantum (computed by multiplication, so float error does not
// accumulate); the last one is clamped to the horizon.
func (d *Paced) Run(until Time) Time {
	v0 := d.env.Now()
	wall0 := d.now()
	for k := int64(1); ; k++ {
		if d.stopFlag.Load() {
			break
		}
		// The injection point: between batches, kernel at rest.
		for _, c := range d.takeDue() {
			c.fn(d.env)
		}
		if d.env.Now() >= until {
			break
		}
		boundary := v0 + Time(k)*d.cfg.QuantumS
		if boundary > until {
			boundary = until
		}
		d.env.Run(boundary)
		d.lastV.Store(d.env.Now())
		d.pace(v0, wall0)
	}
	d.drainRejected()
	return d.env.Now()
}

// pace sleeps until the wall clock catches up with the virtual schedule
// (wall = wall0 + (v-v0)/ratio), in short slices so a Stop is honored
// promptly, and records the worst slip when the kernel is the slow side.
func (d *Paced) pace(v0 Time, wall0 time.Time) {
	if d.cfg.Ratio <= 0 {
		return
	}
	target := wall0.Add(time.Duration(float64(d.env.Now()-v0) / d.cfg.Ratio * float64(time.Second)))
	behind := d.now().Sub(target)
	if behind > d.maxLag {
		d.maxLag = behind
	}
	const slice = 50 * time.Millisecond
	for {
		ahead := target.Sub(d.now())
		if ahead <= 0 || d.stopFlag.Load() {
			return
		}
		if ahead > slice {
			ahead = slice
		}
		d.sleep(ahead)
	}
}
