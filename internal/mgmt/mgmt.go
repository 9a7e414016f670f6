// Package mgmt simulates the virtualization manager — the vCenter-style
// server every management operation funnels through. It models the four
// serialization points that make the management control plane a workload
// of its own:
//
//   - global task admission (a bounded number of in-flight operations),
//   - a finite worker-thread pool for manager-side processing,
//   - the management database (bounded connections, per-write cost), and
//   - hierarchical inventory locks (configurable granularity).
//
// Execute runs one operation through all of them, charging stage service
// times drawn from the ops cost model, dispatching host-side work to the
// per-host agents, and timing the caller-supplied data-plane body. The
// resulting per-task Breakdown is what the characterization pipeline and
// the paper-style figures consume.
package mgmt

import (
	"fmt"
	"strings"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/hostsim"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/storage"
)

// LockGranularity selects how much of the inventory an operation locks.
type LockGranularity int

// Lock granularities, coarse to fine.
const (
	// GranularityCoarse takes one global inventory lock per operation —
	// full serialization, the most conservative historical design.
	GranularityCoarse LockGranularity = iota
	// GranularityHost maps every lock target to its host (or datastore)
	// subtree, serializing operations per host.
	GranularityHost
	// GranularityEntity locks exactly the target entities.
	GranularityEntity
)

func (g LockGranularity) String() string {
	switch g {
	case GranularityCoarse:
		return "coarse"
	case GranularityHost:
		return "host"
	case GranularityEntity:
		return "entity"
	}
	return fmt.Sprintf("granularity(%d)", int(g))
}

// MarshalText writes the granularity's name, so a scenario file spells
// it as a word.
func (g LockGranularity) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

// UnmarshalText is the inverse of MarshalText for the named
// granularities.
func (g *LockGranularity) UnmarshalText(b []byte) error {
	for _, v := range []LockGranularity{GranularityCoarse, GranularityHost, GranularityEntity} {
		if string(b) == v.String() {
			*g = v
			return nil
		}
	}
	return fmt.Errorf("mgmt: unknown granularity %q (want coarse, host or entity)", b)
}

// Config holds the manager's sizing knobs. The JSON tags name the
// scenario file's mgmt fields (internal/core); the fields tagged "-"
// are wired in code.
type Config struct {
	Threads     int             `json:"threads,omitempty"`     // manager worker threads
	DBConns     int             `json:"dbConns,omitempty"`     // concurrent database connections
	MaxInFlight int             `json:"maxInFlight,omitempty"` // global in-flight task cap
	HostSlots   int             `json:"hostSlots,omitempty"`   // per-host agent operation slots
	Granularity LockGranularity `json:"granularity"`           // inventory lock granularity

	// Database selects the detailed WAL database model (package mgmtdb)
	// instead of the default aggregate-service-time model. When set,
	// DBConns is ignored in favour of Database.Conns, and each
	// operation's DB stage becomes real commits with group-commit
	// semantics — the substrate the E13 batching ablation sweeps.
	Database *mgmtdb.Config `json:"-"`

	// Faults, when set, injects deterministic transient failures and
	// latency stalls into the host, DB and storage stages (see
	// package faults). Build one injector per simulation. With no
	// injector — or an injector whose rates are all zero — Execute's
	// event sequence is bit-for-bit what it was before faults existed.
	Faults *faults.Injector `json:"-"`

	// Retry is the policy applied to injected transient failures. The
	// zero value means "one attempt, no retries"; it is only consulted
	// when Faults is set.
	Retry RetryPolicy `json:"-"`
}

// RetryPolicy governs how Execute responds to injected transient
// failures. Failed attempts hold the admission slot (and re-take locks,
// threads, DB connections, and host slots) — retries amplify
// control-plane load rather than silently re-queueing.
type RetryPolicy struct {
	// MaxAttempts caps total attempts per task (<=1 means no retries).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// BaseBackoff is the delay in seconds before the first retry.
	BaseBackoff float64 `json:"baseBackoffS,omitempty"`
	// Multiplier grows the backoff geometrically per retry (values < 1
	// are treated as 1).
	Multiplier float64 `json:"multiplier,omitempty"`
	// DeterministicJitter stretches each backoff by up to this fraction,
	// using a seed-derived per-(task, attempt) draw — deterministic, like
	// everything else.
	DeterministicJitter float64 `json:"jitter,omitempty"`
	// Deadline bounds a task's total latency in seconds: a retry whose
	// backoff would exceed it gives up instead. 0 = no deadline.
	Deadline float64 `json:"deadlineS,omitempty"`
	// Adaptive stretches backoff by the manager's observed fault ratio
	// (faults/attempts so far, tripled): the sicker the plane, the
	// longer retries wait, shedding retry amplification under sustained
	// fault storms. The scaling reads only the manager's own
	// deterministic counters, so runs stay reproducible. false (the
	// default) leaves backoff exactly as before the knob existed. Only a
	// policy set turns it on; a scenario's faults.retry block cannot.
	Adaptive bool `json:"-"`
}

// DefaultRetryPolicy mirrors a production task manager: up to 4
// attempts, 1 s exponential backoff with 25% jitter, 10-minute deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 1, Multiplier: 2, DeterministicJitter: 0.25, Deadline: 600}
}

func (r RetryPolicy) validate() error {
	if r.MaxAttempts < 0 || r.BaseBackoff < 0 || r.Multiplier < 0 || r.DeterministicJitter < 0 || r.Deadline < 0 {
		return fmt.Errorf("mgmt: negative retry policy %+v", r)
	}
	return nil
}

// DefaultConfig mirrors a mid-size production management server.
func DefaultConfig() Config {
	return Config{
		Threads:     16,
		DBConns:     4,
		MaxInFlight: 96,
		HostSlots:   hostsim.DefaultSlots,
		Granularity: GranularityEntity,
	}
}

// Validate checks the sizing knobs, the retry policy and the WAL
// database model when one is set.
func (c Config) Validate() error {
	if c.Threads <= 0 || c.DBConns <= 0 || c.MaxInFlight <= 0 || c.HostSlots <= 0 {
		return fmt.Errorf("mgmt: non-positive config %+v", c)
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	if c.Database != nil {
		return c.Database.Validate()
	}
	return nil
}

// Task is the record of one executed management operation.
type Task struct {
	ID        int64
	Req       ops.Request
	HostID    inventory.ID
	Start     sim.Time
	End       sim.Time
	Breakdown ops.Breakdown
	Err       error
	// Attempts counts execution attempts (1 without fault injection;
	// retries of injected transient failures push it higher).
	Attempts int
}

// Latency returns the task's end-to-end seconds.
func (t *Task) Latency() float64 { return t.End - t.Start }

// Manager is the simulated virtualization manager.
type Manager struct {
	env    *sim.Env
	inv    *inventory.Inventory
	pool   *storage.Pool
	agents *hostsim.Registry
	model  *ops.CostModel
	stream *rng.Stream
	cfg    Config

	admission *sim.Resource
	threads   *sim.Resource
	db        *DB
	locks     map[inventory.ID]*sim.Resource
	global    *sim.Resource

	// Pooled lock-path state. locks holds only the locks held or awaited
	// right now: the attempt whose release leaves a lock with no holder
	// and no waiter returns it to lockPool, so the map is empty whenever
	// no attempt holds a lock, and lockPool never outgrows the most
	// locks in flight at once. Acquisition frames are recycled too, so the steady-state lock
	// path allocates nothing. The kernel runs event bodies one at a time,
	// so plain slices are safe here.
	lockFrames []*lockSet
	lockPool   []*sim.Resource
	globalRel  func()
	chains     []*chain // Execute's stage-chain frames

	nextTaskID int64
	sinks      []func(*Task)

	// orgs holds the manager's own copy of every org name it has seen
	// (see org).
	orgs map[string]string

	perKind map[ops.Kind]*kindStats
	errs    int64
	retry   RetryStats

	// Optional instrumentation (nil instruments no-op when metrics are
	// disabled): inventory-lock wait and end-to-end task latency.
	lockWait *metrics.Histogram
	taskLat  *metrics.Histogram
}

type kindStats struct {
	count    int64
	errors   int64
	attempts int64
	giveups  int64
}

// RetryStats aggregates the retry/fault activity across every task.
type RetryStats struct {
	Attempts int64 // execution attempts (>= tasks completed)
	Faults   int64 // injected transient failures observed
	Retries  int64 // attempts beyond each task's first
	GiveUps  int64 // tasks abandoned (attempts exhausted or deadline)
	Deadline int64 // give-ups caused by the deadline (included in GiveUps)
}

// RetryStats returns the manager-wide retry/fault counters.
func (m *Manager) RetryStats() RetryStats { return m.retry }

// GoodputRow is one operation kind's goodput accounting under fault
// injection: how many attempts the completed tasks cost and how many
// tasks were abandoned.
type GoodputRow struct {
	Kind     ops.Kind
	Tasks    int64 // tasks completed (including abandoned ones)
	OK       int64 // tasks that finished without error
	Attempts int64 // execution attempts consumed
	GiveUps  int64 // tasks abandoned by the retry policy
}

// Goodput returns per-kind goodput rows in canonical kind order.
func (m *Manager) Goodput() []GoodputRow {
	var out []GoodputRow
	for _, k := range ops.Kinds() {
		ks, ok := m.perKind[k]
		if !ok {
			continue
		}
		out = append(out, GoodputRow{
			Kind:     k,
			Tasks:    ks.count,
			OK:       ks.count - ks.errors,
			Attempts: ks.attempts,
			GiveUps:  ks.giveups,
		})
	}
	return out
}

// New builds a manager over the given inventory, storage pool, and cost
// model, writing through db and dispatching host work to agents. The
// plane builds db and agents and may share them between managers. label
// prefixes the manager's resource names and metrics keys ("shardN." on
// a multi-shard plane, "" alone). The stream seeds all stage-time draws.
func New(env *sim.Env, inv *inventory.Inventory, pool *storage.Pool, agents *hostsim.Registry, db *DB, model *ops.CostModel, stream *rng.Stream, label string, cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		env:       env,
		inv:       inv,
		pool:      pool,
		agents:    agents,
		model:     model,
		stream:    stream,
		cfg:       cfg,
		admission: sim.NewResource(env, label+"mgmt.admission", cfg.MaxInFlight),
		threads:   sim.NewResource(env, label+"mgmt.threads", cfg.Threads),
		db:        db,
		locks:     make(map[inventory.ID]*sim.Resource),
		global:    sim.NewResource(env, label+"mgmt.globallock", 1),
		perKind:   make(map[ops.Kind]*kindStats),
		orgs:      make(map[string]string),
	}
	m.globalRel = func() { m.global.Release(1) }
	m.registerMetrics(env.Metrics(), label)
	return m, nil
}

// registerMetrics wires the manager's serialization points — admission,
// worker threads, and inventory locking — into the registry (the
// database registers itself when built). All probes pull statistics the
// manager accumulates anyway, so enabling metrics cannot change the
// event order.
func (m *Manager) registerMetrics(reg *metrics.Registry, label string) {
	if reg == nil {
		return
	}
	m.admission.RegisterMetrics("mgmt")
	m.threads.RegisterMetrics("mgmt")
	if m.cfg.Granularity == GranularityCoarse {
		m.global.RegisterMetrics("mgmt")
	}
	// The label prefix keeps per-shard series from colliding in the
	// registry (duplicate keys replace the probe); a single manager has
	// an empty label and registers exactly the historical keys.
	m.lockWait = reg.Histogram("mgmt", label+"inventory.locks", "wait_s")
	m.taskLat = reg.Histogram("mgmt", label+"tasks", "latency_s")
	reg.ScalarFunc("mgmt", label+"tasks", "completed", func() float64 { return float64(m.nextTaskID) })
	reg.ScalarFunc("mgmt", label+"tasks", "errors", func() float64 { return float64(m.errs) })
	reg.ScalarFunc("mgmt", label+"inventory.locks", "live", func() float64 { return float64(len(m.locks)) })
	if m.cfg.Faults != nil {
		// Retry/failure/goodput series exist only when faults can occur,
		// keeping uninstrumented snapshots identical to pre-faults runs.
		reg.ScalarFunc("mgmt", label+"retry", "attempts", func() float64 { return float64(m.retry.Attempts) })
		reg.ScalarFunc("mgmt", label+"retry", "faults", func() float64 { return float64(m.retry.Faults) })
		reg.ScalarFunc("mgmt", label+"retry", "retries", func() float64 { return float64(m.retry.Retries) })
		reg.ScalarFunc("mgmt", label+"retry", "giveups", func() float64 { return float64(m.retry.GiveUps) })
		reg.ScalarFunc("mgmt", label+"retry", "goodput_frac", func() float64 {
			if m.nextTaskID == 0 {
				return 0
			}
			return float64(m.nextTaskID-m.errs) / float64(m.nextTaskID)
		})
		m.cfg.Faults.RegisterMetrics(reg)
	}
}

// Inventory returns the managed inventory.
func (m *Manager) Inventory() *inventory.Inventory { return m.inv }

// Storage returns the datastore pool.
func (m *Manager) Storage() *storage.Pool { return m.pool }

// Agents returns the host-agent registry.
func (m *Manager) Agents() *hostsim.Registry { return m.agents }

// DB returns the management database the manager writes through.
func (m *Manager) DB() *DB { return m.db }

// AddTaskSink registers fn to be called with every completed task (used by
// the trace writer and online analyses).
func (m *Manager) AddTaskSink(fn func(*Task)) { m.sinks = append(m.sinks, fn) }

// lockIDsFor maps requested lock targets to actual lock IDs under the
// configured granularity, deduplicated and in canonical order.
//
// Under GranularityEntity only VM targets are locked: VMs are the mutable
// leaves, while host/datastore/template targets exist in the set as
// subtree hints so that GranularityHost can serialize whole subtrees.
// (Capacity mutations themselves are atomic inside operation bodies; the
// locks model serialization cost, which is what the granularity ablation
// measures.)
func (m *Manager) lockIDsFor(targets, buf []inventory.ID) []inventory.ID {
	switch m.cfg.Granularity {
	case GranularityCoarse:
		return nil // signalled by useGlobal
	case GranularityHost:
		mapped := buf[:0]
		for _, id := range targets {
			switch e := m.inv.Get(id).(type) {
			case *inventory.VM:
				mapped = append(mapped, e.HostID)
			case *inventory.Template:
				mapped = append(mapped, e.DatastoreID)
			default:
				mapped = append(mapped, id)
			}
		}
		return inventory.SortIDs(mapped)
	default:
		vms := buf[:0]
		for _, id := range targets {
			if _, ok := m.inv.Get(id).(*inventory.VM); ok {
				vms = append(vms, id)
			}
		}
		return inventory.SortIDs(vms)
	}
}

func (m *Manager) lockFor(id inventory.ID) *sim.Resource {
	if r, ok := m.locks[id]; ok {
		return r
	}
	// An idle lock holds no state worth keeping, so any pooled resource
	// stands for any entity. Every entity lock shares one label: lock
	// names never reach an artifact.
	var r *sim.Resource
	if k := len(m.lockPool); k > 0 {
		r = m.lockPool[k-1]
		m.lockPool[k-1] = nil
		m.lockPool = m.lockPool[:k-1]
	} else {
		r = sim.NewResource(m.env, "mgmt.lock", 1)
	}
	m.locks[id] = r
	return r
}

// lockSet is one attempt's pooled lock-acquisition frame: the mapped
// lock IDs, the resources held, and a reusable release closure. Frames
// return to the manager's pool when released, so steady-state
// acquisition allocates nothing.
type lockSet struct {
	ids     []inventory.ID
	held    []*sim.Resource
	release func()
}

func (m *Manager) getLockFrame() *lockSet {
	if k := len(m.lockFrames); k > 0 {
		ls := m.lockFrames[k-1]
		m.lockFrames[k-1] = nil
		m.lockFrames = m.lockFrames[:k-1]
		return ls
	}
	ls := &lockSet{}
	ls.release = func() {
		// A lock left idle goes back to the pool. One with a waiter keeps
		// its resource, and so its FIFO order: Release only schedules the
		// waiter's wakeup, which holds the lock from this instant on.
		for i := len(ls.held) - 1; i >= 0; i-- {
			r := ls.held[i]
			r.Release(1)
			if r.InUse() == 0 && r.QueueLen() == 0 {
				delete(m.locks, ls.ids[i])
				m.lockPool = append(m.lockPool, r)
			}
		}
		ls.held = ls.held[:0]
		ls.ids = ls.ids[:0]
		m.lockFrames = append(m.lockFrames, ls)
	}
	return ls
}

// acquireLocks takes all locks in canonical order, returning seconds spent
// waiting and the release function. The release function must be called
// exactly once; it recycles the acquisition frame.
func (m *Manager) acquireLocks(p *sim.Proc, targets []inventory.ID) (float64, func()) {
	t0 := p.Now()
	if m.cfg.Granularity == GranularityCoarse {
		m.global.Acquire(p, 1)
		return p.Now() - t0, m.globalRel
	}
	ls := m.getLockFrame()
	ls.ids = m.lockIDsFor(targets, ls.ids)
	for _, id := range ls.ids {
		l := m.lockFor(id)
		l.Acquire(p, 1)
		ls.held = append(ls.held, l)
	}
	return p.Now() - t0, ls.release
}

// ExecSpec describes one operation for Execute.
type ExecSpec struct {
	Req         ops.Request
	LockTargets []inventory.ID
	HostID      inventory.ID            // host-agent stage target (None to skip)
	ExtraHostS  float64                 // added to the sampled host time (e.g. migrate memory copy)
	Pre         ops.Breakdown           // time already spent upstream (cell stage)
	Body        func(p *sim.Proc) error // data-plane work + inventory mutation (may be nil)
}

// Execute runs one operation through admission, locks, manager threads,
// the database, the host agent, and the data-plane body, and returns the
// completed task. The task's Start is the request's Submit time when
// stamped (so upstream cell queueing counts toward latency); spec.Pre
// seeds the breakdown with that upstream time.
//
// With a fault injector configured, an attempt can transiently fail in
// the DB, host, or storage stage; Execute then backs off per
// the retry policy and re-runs the attempt — re-taking locks, threads,
// DB connections, and host slots while still holding the admission slot,
// so retries amplify control-plane load instead of vanishing into a
// queue. Every injection point precedes the data-plane Body, so a
// successful inventory mutation is never re-run. Without an injector
// (or with all-zero rates) the event sequence is unchanged.
// The control stages around the body run as kernel callbacks while p
// parks (see chain), in the event slots p's own wakeups would take.
func (m *Manager) Execute(p *sim.Proc, spec ExecSpec) *Task {
	start := p.Now()
	if spec.Req.Submit > 0 && sim.Time(spec.Req.Submit) <= start {
		start = sim.Time(spec.Req.Submit)
	}
	// The task copies the request field by field and takes Org from the
	// manager's table: no pointer moves from spec into the heap task, so
	// escape analysis keeps every caller's spec on its stack, and with it
	// the LockTargets literal, the Body closure and what the closure
	// captures.
	req := ops.Request{
		Kind:       spec.Req.Kind,
		Mode:       spec.Req.Mode,
		TemplateID: spec.Req.TemplateID,
		VMID:       spec.Req.VMID,
		Submit:     spec.Req.Submit,
		Org:        m.org(spec.Req.Org),
	}
	task := &Task{ID: m.nextTaskID, Req: req, HostID: spec.HostID, Start: start, Breakdown: spec.Pre}
	m.nextTaskID++
	// One stage-time sample per task, shared by every attempt: retries
	// redo the same work, and the disabled-faults draw sequence stays
	// exactly one Sample per task.
	sample := m.model.Sample(m.stream, spec.Req.Kind)

	// 1. Global admission — acquired once and held across all attempts
	// (including backoff waits): a retrying task keeps its in-flight slot.
	t0 := p.Now()
	m.admission.Acquire(p, 1)
	task.Breakdown.Queue += p.Now() - t0
	defer m.admission.Release(1)

	maxAttempts := 1
	if m.cfg.Faults != nil && m.cfg.Retry.MaxAttempts > 1 {
		maxAttempts = m.cfg.Retry.MaxAttempts
	}
	for attempt := 1; ; attempt++ {
		task.Attempts = attempt
		m.retry.Attempts++
		m.kindStatsFor(spec.Req.Kind).attempts++
		flt := m.attempt(p, task, spec, sample, attempt)
		if flt == nil {
			break // success, or a permanent (body) error — no retry
		}
		m.retry.Faults++
		if attempt >= maxAttempts {
			task.Err = fmt.Errorf("mgmt: giving up after %d attempts: %w", attempt, flt)
			m.giveUp(task, false)
			break
		}
		backoff := m.backoff(task.ID, attempt)
		if d := m.cfg.Retry.Deadline; d > 0 && p.Now()-task.Start+backoff >= d {
			task.Err = fmt.Errorf("mgmt: retry deadline %.0fs exceeded after %d attempts: %w", d, attempt, flt)
			m.giveUp(task, true)
			break
		}
		m.retry.Retries++
		p.Sleep(backoff)
		task.Breakdown.Queue += backoff
	}

	task.End = p.Now()
	m.record(task)
	return task
}

// org returns the manager's copy of an org name, cloned on first sight.
// The set of names is the tenants the director already counts quota for.
func (m *Manager) org(name string) string {
	if s, ok := m.orgs[name]; ok || name == "" {
		return s
	}
	s := strings.Clone(name)
	m.orgs[s] = s
	return s
}

func (m *Manager) kindStatsFor(k ops.Kind) *kindStats {
	ks, ok := m.perKind[k]
	if !ok {
		ks = &kindStats{}
		m.perKind[k] = ks
	}
	return ks
}

func (m *Manager) giveUp(task *Task, deadline bool) {
	m.retry.GiveUps++
	if deadline {
		m.retry.Deadline++
	}
	m.kindStatsFor(task.Req.Kind).giveups++
}

// backoff computes the delay before retrying after the attempt-th
// failure: BaseBackoff · Multiplier^(attempt-1), stretched by the
// deterministic per-(task, attempt) jitter draw.
func (m *Manager) backoff(taskID int64, attempt int) float64 {
	b := m.cfg.Retry.BaseBackoff
	if b <= 0 {
		b = 1
	}
	mult := m.cfg.Retry.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		b *= mult
	}
	if m.cfg.Retry.Adaptive && m.retry.Attempts > 0 {
		b *= 1 + 3*float64(m.retry.Faults)/float64(m.retry.Attempts)
	}
	if j := m.cfg.Retry.DeterministicJitter; j > 0 {
		b *= 1 + j*m.cfg.Faults.JitterU(taskID, attempt)
	}
	return b
}

// attempt executes one attempt: locks → pre-processing → host agent →
// data-plane body → post-processing. It returns a non-nil *faults.Error
// when an injected transient failure aborted the attempt; permanent body
// errors are stored on the task directly (no retry). Locks are released
// when the attempt ends, so a backing-off task holds only its admission
// slot.
//
// Injection points all sit before the Body runs: the pre-DB stage (a
// commit failure or stall), the host-agent stage (agent failure or
// stall), and the data plane's entry (storage latency spikes). A failed
// attempt still pays for everything up to the failure — that wasted work
// is the retry amplification E17 measures. Post stages are past the
// point of no return and are never injected.
func (m *Manager) attempt(p *sim.Proc, task *Task, spec ExecSpec, sample ops.StageSample, attempt int) *faults.Error {
	// 2. Inventory locks.
	wait, release := m.acquireLocks(p, spec.LockTargets)
	m.lockWait.Observe(wait)
	task.Breakdown.Queue += wait
	defer release()

	// 3–4. Manager pre-processing, pre-DB and host agent (with no body,
	// on through the post stages) as a chain of callbacks.
	c := m.getChain()
	defer func() {
		c.p, c.task, c.agent, c.fault = nil, nil, nil, nil
		m.chains = append(m.chains, c)
	}()
	c.p, c.task, c.kind, c.attempt, c.sample = p, task, spec.Req.Kind, attempt, sample
	c.hostID, c.hostS, c.body = spec.HostID, sample.Host+spec.ExtraHostS, spec.Body != nil
	c.writes = m.model.Stage[spec.Req.Kind].DBWrites
	c.run(atMgmtPre)
	if c.fault != nil || spec.Body == nil {
		return c.fault
	}

	// 5. Data plane.
	kind := spec.Req.Kind.String()
	out := m.cfg.Faults.Decide(faults.LayerStorage, kind, task.ID, attempt)
	if out.StallS > 0 {
		p.Sleep(out.StallS)
		task.Breakdown.Data += out.StallS
	}
	if out.Fail {
		return &faults.Error{Layer: faults.LayerStorage, Op: kind, Attempt: attempt}
	}
	d0 := p.Now()
	task.Err = spec.Body(p)
	task.Breakdown.Data += p.Now() - d0

	// 6. Manager post-processing and final DB updates (task completion,
	// inventory commit).
	c.run(atMgmtPost)
	return nil
}

func (m *Manager) record(t *Task) {
	ks := m.kindStatsFor(t.Req.Kind)
	ks.count++
	m.taskLat.Observe(t.Latency())
	if t.Err != nil {
		m.errs++
		ks.errors++
	}
	for _, fn := range m.sinks {
		fn(t)
	}
}

// TasksCompleted returns the number of tasks executed.
func (m *Manager) TasksCompleted() int64 { return m.nextTaskID }

// TaskErrors returns the number of tasks that completed with an error.
func (m *Manager) TaskErrors() int64 { return m.errs }

// ResourceReport exposes the manager's own serialization points for the
// queueing experiments; DB().Stats() reports the database's.
type ResourceReport struct {
	Admission sim.ResourceStats
	Threads   sim.ResourceStats
}

// Resources returns current resource statistics.
func (m *Manager) Resources() ResourceReport {
	return ResourceReport{
		Admission: m.admission.Stats(),
		Threads:   m.threads.Stats(),
	}
}
