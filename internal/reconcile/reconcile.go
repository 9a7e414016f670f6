// Package reconcile is the always-on reconciliation plane: per-object
// controllers that continuously observe the simulated installation,
// detect drift from desired state, and correct it with management
// operations — the closed-loop controller workload modern control
// planes (Kubernetes controller-runtime, Crossplane) run alongside
// request-driven provisioning. Reconcilers submit their corrections
// through the management plane's Execute, so background reconciliation
// competes with foreground work for the exact serialization points the
// paper profiles: admission slots, worker threads, inventory locks, and
// management-database connections.
//
// The machinery is the standard controller stack in deterministic form:
// a deduplicating workqueue (workqueue.go), a token-bucket rate limiter
// in virtual time (ratelimit.go), and exponential per-item requeue
// backoff. Determinism follows the internal/faults discipline: every
// stochastic decision draws from a stream derived as
// rng.DeriveSeed(seed, "reconcile:<controller>:<key>:<attempt>") — a
// pure function of the master seed and identifiers, never of execution
// order — and a Config with no controllers builds nothing, spawns
// nothing, and draws nothing, so a disabled reconciliation plane is
// bit-for-bit identical to the subsystem not existing.
package reconcile

import (
	"fmt"
	"reflect"

	"cloudmcp/internal/metrics"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// BackoffPolicy shapes the per-item requeue delay after a failed
// reconciliation: min(MaxS, BaseS·Mult^(attempt-1)), stretched by up to
// Jitter using the deterministic per-(controller, key, attempt) draw.
type BackoffPolicy struct {
	BaseS  float64 `json:"baseS,omitempty"`
	MaxS   float64 `json:"maxS,omitempty"`
	Mult   float64 `json:"mult,omitempty"`
	Jitter float64 `json:"jitter,omitempty"`
}

// DefaultBackoff mirrors controller-runtime's default item limiter
// scaled to management-operation latencies: 1 s base doubling to a 60 s
// cap, 25% jitter.
func DefaultBackoff() BackoffPolicy {
	return BackoffPolicy{BaseS: 1, MaxS: 60, Mult: 2, Jitter: 0.25}
}

func (b BackoffPolicy) validate() error {
	if b.BaseS <= 0 || b.MaxS < b.BaseS || b.Mult < 1 || b.Jitter < 0 {
		return fmt.Errorf("reconcile: bad backoff policy %+v", b)
	}
	return nil
}

// Config sizes the reconciliation plane. The zero value — and any value
// with no Controllers — is disabled: New builds no controllers, Start
// spawns no processes, and nothing is drawn or registered.
type Config struct {
	// Controllers names the scenario reconcilers to run, in order:
	// ControllerDrift, ControllerCatalog, ControllerRebalance.
	Controllers []string `json:"controllers,omitempty"`
	// IntervalS is the resync period: how often each controller re-lists
	// the objects it owns. Default 300.
	IntervalS float64 `json:"intervalS,omitempty"`
	// Depth is the number of worker processes per controller draining
	// the workqueue — the queue depth knob E20 sweeps. Default 2.
	Depth int `json:"depth,omitempty"`
	// RatePerS is each controller's token-bucket refill rate in
	// reconciliations per second (<= 0 disables limiting). Default 2.
	RatePerS float64 `json:"ratePerS,omitempty"`
	// Burst is the token-bucket size. Default 4.
	Burst float64 `json:"burst,omitempty"`
	// MaxRetries drops a key after this many consecutive failed
	// reconciliations (the next resync may re-list it). Default 5.
	MaxRetries int `json:"maxRetries,omitempty"`
	// Backoff shapes the requeue delay between retries.
	Backoff BackoffPolicy `json:"backoff,omitempty"`
	// DriftRate is the drift controller's per-(VM, epoch) probability
	// that a VM's observed config diverged and needs correcting.
	// Default 0.02.
	DriftRate float64 `json:"driftRate,omitempty"`
	// FillFraction is the datastore fill level above which the rebalance
	// controller enqueues every resident VM. Default 0.85.
	FillFraction float64 `json:"fillFraction,omitempty"`
}

// DefaultConfig returns the default knobs with no controllers enabled.
func DefaultConfig() Config {
	return Config{
		IntervalS:    300,
		Depth:        2,
		RatePerS:     2,
		Burst:        4,
		MaxRetries:   5,
		Backoff:      DefaultBackoff(),
		DriftRate:    0.02,
		FillFraction: 0.85,
	}
}

// Enabled reports whether any controller is configured.
func (c Config) Enabled() bool { return len(c.Controllers) > 0 }

// WithDefaults gives the bare literal Config{Controllers: ...} every
// DefaultConfig knob, so it is runnable. A Config that sets any knob is
// used as written: a zero RatePerS, Burst or DriftRate means zero.
func (c Config) WithDefaults() Config {
	if !reflect.DeepEqual(c, Config{Controllers: c.Controllers}) {
		return c
	}
	d := DefaultConfig()
	d.Controllers = c.Controllers
	return d
}

// Validate checks the configuration. A disabled config is always valid.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	seen := make(map[string]bool)
	for _, name := range c.Controllers {
		switch name {
		case ControllerDrift, ControllerCatalog, ControllerRebalance:
		default:
			return fmt.Errorf("reconcile: unknown controller %q (want %q, %q, or %q)",
				name, ControllerDrift, ControllerCatalog, ControllerRebalance)
		}
		if seen[name] {
			return fmt.Errorf("reconcile: controller %q listed twice", name)
		}
		seen[name] = true
	}
	if c.IntervalS <= 0 {
		return fmt.Errorf("reconcile: interval %g must be > 0", c.IntervalS)
	}
	if c.Depth < 1 {
		return fmt.Errorf("reconcile: depth %d must be >= 1", c.Depth)
	}
	if c.RatePerS < 0 {
		return fmt.Errorf("reconcile: rate %g must be >= 0", c.RatePerS)
	}
	if c.RatePerS > 0 && c.Burst < 1 {
		return fmt.Errorf("reconcile: burst %g must be >= 1 when rate limiting", c.Burst)
	}
	if c.MaxRetries < 1 {
		return fmt.Errorf("reconcile: max retries %d must be >= 1", c.MaxRetries)
	}
	if err := c.Backoff.validate(); err != nil {
		return err
	}
	if c.DriftRate < 0 || c.DriftRate > 1 {
		return fmt.Errorf("reconcile: drift rate %g out of [0,1]", c.DriftRate)
	}
	if c.FillFraction <= 0 || c.FillFraction > 1 {
		return fmt.Errorf("reconcile: fill fraction %g out of (0,1]", c.FillFraction)
	}
	return nil
}

// Controller is one reconciler: a named closed loop that periodically
// lists the keys it owns and drives each through Action.
type Controller struct {
	Name string
	// List enumerates the keys to resync. epoch is the 1-based resync
	// round, so per-epoch decisions can derive from (seed, key, epoch)
	// alone — independent of execution order.
	List func(epoch int64) []string
	// Action reconciles one key. A non-nil error requeues the key with
	// exponential backoff until MaxRetries.
	Action func(p *sim.Proc, key string) error
}

// Stats is one controller's accumulated activity.
type Stats struct {
	Controller string
	Queue      QueueStats
	Runs       int64   // reconciliations executed
	Errors     int64   // reconciliations that returned an error
	Retries    int64   // backoff requeues after errors
	Drops      int64   // keys dropped after MaxRetries failures
	ThrottleS  float64 // seconds spent waiting on the rate limiter
	BusyS      float64 // seconds spent inside actions (incl. queueing in mgmt)
}

// runtime is one controller's execution state.
type runtime struct {
	ctrl     Controller
	queue    *Queue
	bucket   *TokenBucket
	attempts map[string]int
	stats    Stats
	epoch    int64

	// Cached "reconcile:<name>:" FNV prefix plus a reseedable generator,
	// the same allocation-free per-decision derivation internal/faults
	// uses. The seeds equal rng.DeriveSeed(seed,
	// "reconcile:<name>:<key>:<attempt>") bit for bit (pinned by test).
	prefix  rng.SeedHasher
	scratch *rng.Reseeder
	pol     BackoffPolicy
}

// backoffDelay returns the requeue delay before retry `attempt` (1-based
// count of failures so far) of key.
func (rt *runtime) backoffDelay(key string, attempt int) float64 {
	b := rt.pol.BaseS
	for i := 1; i < attempt && b < rt.pol.MaxS; i++ {
		b *= rt.pol.Mult
	}
	if b > rt.pol.MaxS {
		b = rt.pol.MaxS
	}
	if j := rt.pol.Jitter; j > 0 {
		u := rt.scratch.Reseed(rt.prefix.String(key).Byte(':').Int(int64(attempt)).Seed()).Float64()
		b *= 1 + j*u
	}
	return b
}

// Plane is the assembled reconciliation plane for one simulated cloud.
type Plane struct {
	env   *sim.Env
	plane *plane.Plane
	seed  int64
	cfg   Config
	ctrls []*runtime
}

// New builds the reconciliation plane over the given management plane:
// each correction routes to the shard owning its target host (host-less
// work to the home shard) and pays that shard's admission, thread, lock,
// and DB costs. A config with no controllers yields an inert plane:
// identical in behaviour to not constructing one at all.
func New(env *sim.Env, pl *plane.Plane, seed int64, cfg Config) (*Plane, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Plane{env: env, plane: pl, seed: seed, cfg: cfg}
	for _, name := range cfg.Controllers {
		ctrl, err := r.scenario(name)
		if err != nil {
			return nil, err
		}
		r.ctrls = append(r.ctrls, &runtime{
			ctrl:     ctrl,
			queue:    NewQueue(env),
			bucket:   NewTokenBucket(cfg.RatePerS, cfg.Burst),
			attempts: make(map[string]int),
			stats:    Stats{Controller: name},
			prefix:   rng.NewSeedHasher(seed).String("reconcile:" + name + ":"),
			scratch:  rng.NewReseeder(),
			pol:      cfg.Backoff,
		})
	}
	r.registerMetrics(env.Metrics())
	return r, nil
}

// Start launches each controller's resync loop and Depth workers. The
// first resync fires after one interval, so construction alone never
// perturbs the event sequence at time zero.
func (r *Plane) Start() {
	for _, rt := range r.ctrls {
		rt := rt
		StartLoop(r.env, "reconcile:"+rt.ctrl.Name, r.cfg.IntervalS, func(p *sim.Proc) {
			rt.epoch++
			for _, key := range rt.ctrl.List(rt.epoch) {
				rt.queue.Add(key)
			}
		})
		for w := 0; w < r.cfg.Depth; w++ {
			r.env.Go("reconcile:worker", func(p *sim.Proc) {
				for {
					key := rt.queue.Get(p)
					r.process(rt, p, key)
				}
			})
		}
	}
}

// process runs one reconciliation: rate-limit, act, and on failure
// requeue with backoff until MaxRetries.
func (r *Plane) process(rt *runtime, p *sim.Proc, key string) {
	rt.stats.ThrottleS += rt.bucket.Wait(p)
	t0 := p.Now()
	err := rt.ctrl.Action(p, key)
	rt.stats.BusyS += p.Now() - t0
	rt.stats.Runs++
	rt.queue.Done(key)
	if err == nil {
		delete(rt.attempts, key)
		return
	}
	rt.stats.Errors++
	n := rt.attempts[key] + 1
	rt.attempts[key] = n
	if n >= r.cfg.MaxRetries {
		rt.stats.Drops++
		delete(rt.attempts, key)
		return
	}
	rt.stats.Retries++
	r.env.Schedule(rt.backoffDelay(key, n), func() { rt.queue.Add(key) })
}

// Stats returns per-controller activity in configured order.
func (r *Plane) Stats() []Stats {
	var out []Stats
	for _, rt := range r.ctrls {
		s := rt.stats
		s.Queue = rt.queue.Stats()
		out = append(out, s)
	}
	return out
}

// find returns the runtime for the named controller, nil if absent.
func (r *Plane) find(name string) *runtime {
	for _, rt := range r.ctrls {
		if rt.ctrl.Name == name {
			return rt
		}
	}
	return nil
}

// registerMetrics exposes per-controller counters as pull probes under
// layer "reconcile". Series exist only for configured controllers, so
// a disabled plane leaves snapshots untouched.
func (r *Plane) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, rt := range r.ctrls {
		rt := rt
		name := rt.ctrl.Name
		reg.ScalarFunc("reconcile", name, "runs", func() float64 { return float64(rt.stats.Runs) })
		reg.ScalarFunc("reconcile", name, "errors", func() float64 { return float64(rt.stats.Errors) })
		reg.ScalarFunc("reconcile", name, "retries", func() float64 { return float64(rt.stats.Retries) })
		reg.ScalarFunc("reconcile", name, "drops", func() float64 { return float64(rt.stats.Drops) })
		reg.ScalarFunc("reconcile", name, "dedups", func() float64 { return float64(rt.queue.Stats().Dedups) })
		reg.ScalarFunc("reconcile", name, "requeues", func() float64 { return float64(rt.queue.Stats().Requeues) })
		reg.ScalarFunc("reconcile", name, "throttle_s", func() float64 { return rt.stats.ThrottleS })
		reg.ScalarFunc("reconcile", name, "depth", func() float64 { return float64(rt.queue.Len()) })
	}
}
