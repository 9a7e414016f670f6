// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock through a time-ordered event heap.
// Model logic is written as processes: ordinary functions that run as
// coroutines (iter.Pull) under the kernel. A process blocks by sleeping,
// acquiring a Resource, or waiting on a Queue or Signal; that suspends its
// coroutine and switches straight back to the kernel, and the event that
// wakes it switches straight into it again, with no trip through the Go
// scheduler. At most one process executes at any instant, so model code
// needs no locking and — together with seeded randomness from package
// rng — a simulation run is fully deterministic: the same inputs produce
// the same event order and the same results.
//
// A panic in a process body propagates to the caller of Env.Run, on the
// caller's own goroutine, where it can be recovered like a panic in an
// event callback.
//
// Env.Go starts a process now; Env.GoAfter starts one later, and until
// then only its event exists. Env.Close ends the coroutines of an Env
// that will not run again.
//
// A coroutine switch costs an order of magnitude more than an event
// callback, so stages a process would sleep and acquire through can run
// as callbacks instead (Schedule for Sleep, Resource.AcquireThen for
// Acquire), each in the (time, sequence) slot of the wakeup it replaces,
// while the process waits in Proc.Park until a callback calls Env.Unpark.
// Proc.Yield is Sleep(0) without the switch when no other event is due
// at the current instant.
//
// Time is measured in seconds of virtual time as a float64 (type Time).
//
// # Performance
//
// The kernel is the hot path of every experiment, so its steady state is
// allocation-free: fired events are recycled through a per-Env free list,
// process wakeups are direct event fields rather than closures, finished
// process shells and their coroutines are reused by later spawns, and
// events scheduled at the current instant bypass the heap through a FIFO
// same-time queue (wakeups and zero-delay chains are the most common
// events by far). The heap is typed on its events, so no comparison goes
// through an interface. None of this changes the execution order, which
// remains exactly (time, sequence)-ordered; the determinism tests pin
// that down.
//
// A coroutine costs a goroutine stack that every garbage collection
// scans, and only its Env can end it. So a process that would sleep out
// the rest of its life hands its last step to GoAfter and finishes, and
// a finished Env releases its coroutines on Close: a program that runs
// many simulations keeps none of their processes alive.
package sim

import (
	"fmt"
	"math"

	"cloudmcp/internal/metrics"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// Forever is a convenient horizon for Run when the caller wants the event
// heap to drain completely.
const Forever Time = math.MaxFloat64

// event index markers (event.idx values outside the heap).
const (
	idxPopped      = -1 // fired, cancelled from the heap, or free
	idxNowQ        = -2 // waiting in the same-time FIFO queue
	idxNowQStopped = -3 // cancelled while in the same-time queue
)

// event is a scheduled callback. Events are pooled: after firing (or being
// cancelled) an event returns to the Env's free list and is reused by a
// later Schedule, so the steady-state path does not allocate. gen
// distinguishes incarnations so a stale Timer cannot cancel the recycled
// event.
type event struct {
	at   Time
	seq  int64 // tie-break: FIFO among simultaneous events
	fn   func()
	p    *Proc       // when non-nil, the event resumes p instead of calling fn
	body func(*Proc) // when non-nil, the event starts a process (GoAfter)
	idx  int         // heap index, or one of the idx* markers
	gen  uint64      // incremented every time the event is recycled
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// typed on *event, so no comparison or swap goes through an interface,
// and it keeps every event's idx current so Timer.Stop can remove from
// the middle.
type eventHeap []*event

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove takes the event at index i out of the heap and marks it popped.
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	ev := s[i]
	if i != n {
		last := s[n]
		if !s.down(i, n, last) {
			s.up(i, last)
		}
	}
	s[n] = nil
	*h = s[:n]
	ev.idx = idxPopped
}

// up places ev, which belongs at slot j or above it, by moving the hole at
// j towards the root past every parent that fires after ev.
func (h eventHeap) up(j int, ev *event) {
	for j > 0 {
		i := (j - 1) / 2
		parent := h[i]
		if !ev.before(parent) {
			break
		}
		h[j], parent.idx = parent, j
		j = i
	}
	h[j], ev.idx = ev, j
}

// down places ev, which belongs at slot i0 or below it within h[:n], by
// moving the hole at i0 towards the leaves past every smaller child. It
// reports whether ev moved below i0.
func (h eventHeap) down(i0, n int, ev *event) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2
		}
		child := h[j]
		if !child.before(ev) {
			break
		}
		h[i], child.idx = child, i
		i = j
	}
	h[i], ev.idx = ev, i
	return i > i0
}

// Env is a simulation environment: a virtual clock plus an event heap.
// Create one with NewEnv; it is not safe for concurrent use from outside
// the simulation (all model code runs under the kernel's cooperative
// scheduler, which provides the necessary serialization).
type Env struct {
	now     Time
	heap    eventHeap
	seq     int64
	running bool
	stopped bool
	closed  bool

	// nowq is the same-time fast path: a FIFO of events scheduled at the
	// current instant. Entries are appended with non-decreasing (at, seq),
	// since Run never moves the clock backwards, so the front is always
	// the queue's minimum and merging with the heap is a single
	// comparison instead of an O(log n) heap operation.
	nowq     []*event
	nowqHead int
	nowqDead int // cancelled entries still occupying nowq slots

	// free is the event free list; see the event type.
	free []*event

	// nproc counts live (started, not yet finished) processes, for leak
	// detection in tests.
	nproc int

	// procFree holds finished process shells whose coroutines are
	// suspended at the end of their loop, awaiting a next life (see
	// startProc).
	procFree []*Proc

	// shells holds every shell whose coroutine has been built, for Close.
	shells []*Proc

	// active is the process the kernel is switched into, if any.
	active *Proc

	// wakes counts switches into processes (see wake).
	wakes int64

	// metrics is the optional instrumentation registry resources and
	// model layers report into; nil (the default) disables collection at
	// zero cost.
	metrics *metrics.Registry
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() Time { return e.now }

// SetMetrics attaches an instrumentation registry. It must be called
// before the model layers are built so their resources can register;
// resources created earlier are not retroactively instrumented.
func (e *Env) SetMetrics(reg *metrics.Registry) { e.metrics = reg }

// Metrics returns the attached registry, or nil when metrics are
// disabled. The nil registry is safe to use: every constructor on it
// returns a no-op instrument.
func (e *Env) Metrics() *metrics.Registry { return e.metrics }

// newEvent takes an event from the free list (or allocates one), stamps
// it, and enqueues it: on the same-time FIFO queue when it fires at the
// current instant, otherwise on the heap.
func (e *Env) newEvent(at Time, fn func(), p *Proc) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.p = at, e.seq, fn, p
	e.seq++
	if at == e.now {
		ev.idx = idxNowQ
		e.nowq = append(e.nowq, ev)
		return ev
	}
	e.heap.push(ev)
	return ev
}

// release returns a fired or cancelled event to the free list.
func (e *Env) release(ev *event) {
	ev.fn, ev.p, ev.body = nil, nil, nil
	ev.idx = idxPopped
	ev.gen++
	e.free = append(e.free, ev)
}

// peek returns the next event to fire — the (time, sequence) minimum of
// the heap and the same-time queue — without removing it. It compacts
// cancelled same-time entries as it goes. Returns nil when nothing is
// pending.
func (e *Env) peek() *event {
	for e.nowqHead < len(e.nowq) && e.nowq[e.nowqHead].idx == idxNowQStopped {
		e.release(e.nowq[e.nowqHead])
		e.nowq[e.nowqHead] = nil
		e.nowqHead++
		e.nowqDead--
	}
	var front *event
	if e.nowqHead < len(e.nowq) {
		front = e.nowq[e.nowqHead]
	} else if e.nowqHead > 0 {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
	if len(e.heap) == 0 {
		return front
	}
	top := e.heap[0]
	if front == nil || top.at < front.at || (top.at == front.at && top.seq < front.seq) {
		return top
	}
	return front
}

// pop removes ev — which must be the event peek just returned — from its
// queue.
func (e *Env) pop(ev *event) {
	if ev.idx == idxNowQ {
		e.nowq[e.nowqHead] = nil
		e.nowqHead++
		ev.idx = idxPopped
		return
	}
	e.heap.remove(0)
}

// checkDelay panics on a delay that is negative or NaN. A NaN delay
// would put the clock at NaN, after which no (time, sequence) comparison
// holds and the event order is silently wrong; +Inf is a valid "never".
func checkDelay(d Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid delay %v", d))
	}
}

// Schedule registers fn to run after delay seconds of virtual time.
// An invalid delay (negative or NaN) panics: events cannot be scheduled
// in the past. The returned Timer may be used to cancel the event before
// it fires.
func (e *Env) Schedule(delay Time, fn func()) Timer {
	checkDelay(delay)
	ev := e.newEvent(e.now+delay, fn, nil)
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// scheduleWake registers an event that resumes p after delay seconds.
// Equivalent to Schedule(delay, func() { e.wake(p) }) without the closure
// allocation; this is the kernel's internal path for every blocking
// primitive (Sleep, Resource, Queue, Signal).
func (e *Env) scheduleWake(delay Time, p *Proc) {
	e.newEvent(e.now+delay, nil, p)
}

// Timer is a handle to a scheduled event. The zero Timer is valid and
// behaves like a timer whose event has already fired: Stop reports false.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// pending reports whether the timer's event is still scheduled. Events
// are pooled, so a fired event may have been recycled by a later
// Schedule; the generation check makes sure this timer still refers to
// its own incarnation.
func (t Timer) pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && (t.ev.idx >= 0 || t.ev.idx == idxNowQ)
}

// Stop cancels the timer's event if it has not fired yet. It reports
// whether the event was cancelled (false when it already fired or was
// already stopped).
func (t Timer) Stop() bool {
	if !t.pending() {
		return false
	}
	ev := t.ev
	if ev.idx == idxNowQ {
		// In the same-time queue: mark the slot dead; peek reclaims it.
		ev.fn, ev.p, ev.body = nil, nil, nil
		ev.idx = idxNowQStopped
		t.env.nowqDead++
		return true
	}
	t.env.heap.remove(ev.idx)
	t.env.release(ev)
	return true
}

// Stop terminates the simulation: Run returns after the current event
// completes, and later events stay pending for the next Run.
func (e *Env) Stop() { e.stopped = true }

// Run executes events in time order until the heap drains, the clock would
// pass until, or Stop is called. It returns the final virtual time. Events
// scheduled exactly at until still run. The clock only moves forward: a
// run that drains or reaches until leaves it at until (unless until is
// Forever or already past), and a stopped run leaves it at the instant
// it stopped, so the events still pending fire later at their own times.
func (e *Env) Run(until Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	if e.closed {
		panic("sim: Run called after Close")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running, e.active = false, nil }()
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > until {
			break
		}
		e.pop(ev)
		e.now = ev.at
		fn, p, body := ev.fn, ev.p, ev.body
		e.release(ev)
		if p != nil {
			e.wake(p)
		} else if fn != nil {
			fn()
		} else {
			e.nproc++
			e.wake(e.startProc("", body))
		}
	}
	if !e.stopped && e.now < until && until != Forever {
		e.now = until
	}
	return e.now
}

// Pending returns the number of scheduled (uncancelled) events.
func (e *Env) Pending() int {
	return len(e.heap) + (len(e.nowq) - e.nowqHead - e.nowqDead)
}

// Resource is a counted resource with FIFO admission: at most Capacity
// units may be held at once; Acquire blocks the calling process, and
// AcquireThen defers its callback, until the request can be granted in
// arrival order.
//
// Resource additionally keeps the time-integrals needed for utilization and
// queue-length statistics (see Stats).
//
// A grant that does not queue allocates nothing: only a request that
// waits takes a waiter record.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int

	// waiters[wHead:] is the FIFO admission queue. The head index (rather
	// than re-slicing) lets the backing array be reused once the queue
	// drains, and freeW recycles waiter records, keeping Acquire
	// allocation-free at steady state.
	waiters []*resWaiter
	wHead   int
	freeW   []*resWaiter

	// accounting
	lastT        Time
	busyIntegral float64 // ∫ inUse dt
	qIntegral    float64 // ∫ len(waiters) dt
	grants       int64
	waitTotal    float64
	maxQueue     int
}

type resWaiter struct {
	p       *Proc
	fn      func() // AcquireThen's continuation; nil for a process waiter
	n       int
	since   Time
	granted bool
	blocked bool // true once the request has queued
}

// NewResource creates a resource with the given capacity (units > 0).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requests waiting to be granted.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.wHead }

func (r *Resource) account() {
	dt := r.env.now - r.lastT
	if dt > 0 {
		r.busyIntegral += dt * float64(r.inUse)
		r.qIntegral += dt * float64(r.QueueLen())
	}
	r.lastT = r.env.now
}

// newWaiter takes a waiter record from the free list or allocates one.
func (r *Resource) newWaiter(p *Proc, fn func(), n int) *resWaiter {
	var w *resWaiter
	if k := len(r.freeW); k > 0 {
		w = r.freeW[k-1]
		r.freeW[k-1] = nil
		r.freeW = r.freeW[:k-1]
	} else {
		w = &resWaiter{}
	}
	*w = resWaiter{p: p, fn: fn, n: n, since: r.env.now}
	return w
}

// acquire queues a request for n units (n in [1, capacity]) that resumes
// p or calls fn when granted, and reports whether it was granted at once.
// A request that finds the queue empty and n units free is granted in
// place, with the accounting dispatch gives a lone waiter: it counts as
// a queue of one for an instant and waits zero seconds.
func (r *Resource) acquire(p *Proc, fn func(), n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of %q (capacity %d)", n, r.name, r.capacity))
	}
	r.account()
	if r.wHead == len(r.waiters) && r.inUse+n <= r.capacity {
		r.maxQueue = max(r.maxQueue, 1)
		r.inUse += n
		r.grants++
		return true
	}
	w := r.newWaiter(p, fn, n)
	r.waiters = append(r.waiters, w)
	if q := r.QueueLen(); q > r.maxQueue {
		r.maxQueue = q
	}
	r.dispatch()
	if w.granted {
		r.freeW = append(r.freeW, w) // the grant removed w from the queue
		return true
	}
	w.blocked = true
	return false
}

// Acquire blocks p until n units are available and this request is at the
// head of the FIFO queue. n must be in [1, capacity].
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.acquire(p, nil, n) {
		p.yield()
	}
}

// AcquireThen is Acquire for code that runs as event callbacks: it
// requests n units and calls fn once they are granted, inline when at
// once (as a process continues inline after Acquire), otherwise from an
// event in the (time, sequence) slot a blocked process's wakeup takes.
func (r *Resource) AcquireThen(n int, fn func()) {
	if r.acquire(nil, fn, n) {
		fn()
	}
}

// Release returns n units to the resource and wakes eligible waiters.
// It may be called from any process or event callback.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of %q (in use %d)", n, r.name, r.inUse))
	}
	r.account()
	r.inUse -= n
	r.dispatch()
}

// dispatch grants requests strictly in FIFO order: the head waiter blocks
// later (smaller) requests even if those could be satisfied, preventing
// starvation of large requests.
func (r *Resource) dispatch() {
	for r.wHead < len(r.waiters) {
		w := r.waiters[r.wHead]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters[r.wHead] = nil
		r.wHead++
		if r.wHead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.wHead = 0
		}
		r.inUse += w.n
		w.granted = true
		r.grants++
		r.waitTotal += r.env.now - w.since
		if w.blocked {
			// The process has yielded, or the callback is queued: resume
			// it via a fresh event so wakeups stay in deterministic FIFO
			// order. Nothing else holds w.
			r.env.newEvent(r.env.now, w.fn, w.p)
			r.freeW = append(r.freeW, w)
		}
		// Otherwise the acquirer is still inside acquire; it sees
		// granted==true and continues inline.
	}
}

// ResourceStats is a snapshot of a resource's accumulated statistics.
type ResourceStats struct {
	Name         string
	Capacity     int
	Grants       int64   // completed acquisitions
	Utilization  float64 // mean fraction of capacity in use
	MeanQueueLen float64 // time-averaged waiter count
	MeanWait     float64 // mean seconds spent queued per grant
	TotalWait    float64 // total seconds spent queued across all grants
	MaxQueueLen  int
}

// Stats returns utilization and queueing statistics accumulated since the
// start of the simulation, evaluated at the current virtual time.
func (r *Resource) Stats() ResourceStats {
	r.account()
	s := ResourceStats{Name: r.name, Capacity: r.capacity, Grants: r.grants, TotalWait: r.waitTotal, MaxQueueLen: r.maxQueue}
	if r.env.now > 0 {
		s.Utilization = r.busyIntegral / (r.env.now * float64(r.capacity))
		s.MeanQueueLen = r.qIntegral / r.env.now
	}
	if r.grants > 0 {
		s.MeanWait = r.waitTotal / float64(r.grants)
	}
	return s
}

// RegisterMetrics registers the resource's busy-time and queue-time
// statistics with the environment's metrics registry under the given
// layer, keyed by the resource's name. No-op when metrics are disabled.
func (r *Resource) RegisterMetrics(layer string) { r.RegisterMetricsAs(layer, r.name) }

// RegisterMetricsAs is RegisterMetrics keyed by name instead of the
// resource's own name.
func (r *Resource) RegisterMetricsAs(layer, name string) {
	reg := r.env.metrics
	if reg == nil {
		return
	}
	reg.ResourceFunc(layer, name, func() metrics.ResourceSample {
		s := r.Stats()
		return metrics.ResourceSample{
			Capacity:     s.Capacity,
			Utilization:  s.Utilization,
			MeanQueueLen: s.MeanQueueLen,
			MaxQueueLen:  s.MaxQueueLen,
			Grants:       s.Grants,
			MeanWaitS:    s.MeanWait,
			TotalWaitS:   s.TotalWait,
		}
	})
}

// Queue is an unbounded FIFO channel between processes: Put never blocks,
// Get blocks the caller until an item is available. Items are delivered to
// getters in arrival order. A Put to a blocked getter queues the item in
// handed and wakes the getter; getters wake in the order they were
// handed items, so each takes its own. Nothing allocates at steady state.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	handed  fifo[T]
	getters fifo[*Proc]
}

// NewQueue creates an empty queue.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v and wakes the oldest blocked getter, if any.
func (q *Queue[T]) Put(v T) {
	if q.getters.len() > 0 {
		q.handed.push(v)
		q.env.scheduleWake(0, q.getters.pop())
		return
	}
	q.items.push(v)
}

// Get blocks p until an item is available and returns it.
func (q *Queue[T]) Get(p *Proc) T {
	if q.items.len() > 0 {
		return q.items.pop()
	}
	q.getters.push(p)
	p.yield()
	if q.handed.len() == 0 {
		panic("sim: queue getter resumed without item")
	}
	return q.handed.pop()
}

// fifo is a FIFO over buf[head:]. A push into a full buffer first slides
// the live items down, so the backing array is reused, not regrown.
type fifo[E any] struct {
	buf  []E
	head int
}

func (f *fifo[E]) len() int { return len(f.buf) - f.head }

func (f *fifo[E]) push(v E) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[E]) pop() E {
	v := f.buf[f.head]
	var zero E
	f.buf[f.head] = zero
	f.head++
	return v
}

// Signal is a broadcast condition: processes Wait on it and all waiters are
// released by the next Fire. Each Fire releases only the processes that
// were already waiting.
type Signal struct {
	env     *Env
	waiters []*Proc
	fires   int64
}

// NewSignal creates a signal with no waiters.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Fire releases all current waiters in wait order.
func (s *Signal) Fire() {
	s.fires++
	// Fire runs atomically under the kernel (no process can Wait while it
	// executes), so truncating in place is safe and keeps the backing
	// array for the next round of waiters.
	for i, p := range s.waiters {
		s.env.scheduleWake(0, p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Fires returns the number of times Fire has been called.
func (s *Signal) Fires() int64 { return s.fires }
