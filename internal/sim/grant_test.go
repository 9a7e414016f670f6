package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// queueingResource is Resource without the uncontended fast path: every
// request, granted at once or not, joins the queue and is granted by
// dispatch, with the accounting that implies. It is the reference
// FuzzResourceGrantsMatchQueueing holds Resource to.
type queueingResource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*resWaiter

	lastT        Time
	busyIntegral float64
	qIntegral    float64
	grants       int64
	waitTotal    float64
	maxQueue     int
}

func (r *queueingResource) account() {
	if dt := r.env.now - r.lastT; dt > 0 {
		r.busyIntegral += dt * float64(r.inUse)
		r.qIntegral += dt * float64(len(r.waiters))
	}
	r.lastT = r.env.now
}

func (r *queueingResource) acquire(p *Proc, fn func(), n int) bool {
	r.account()
	w := &resWaiter{p: p, fn: fn, n: n, since: r.env.now}
	r.waiters = append(r.waiters, w)
	r.maxQueue = max(r.maxQueue, len(r.waiters))
	r.dispatch()
	w.blocked = !w.granted
	return w.granted
}

func (r *queueingResource) Acquire(p *Proc, n int) {
	if !r.acquire(p, nil, n) {
		p.yield()
	}
}

func (r *queueingResource) AcquireThen(n int, fn func()) {
	if r.acquire(nil, fn, n) {
		fn()
	}
}

func (r *queueingResource) Release(n int) {
	r.account()
	r.inUse -= n
	r.dispatch()
}

func (r *queueingResource) dispatch() {
	for len(r.waiters) > 0 && r.inUse+r.waiters[0].n <= r.capacity {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.granted = true
		r.grants++
		r.waitTotal += r.env.now - w.since
		if w.blocked {
			r.env.newEvent(r.env.now, w.fn, w.p)
		}
	}
}

func (r *queueingResource) Stats() ResourceStats {
	r.account()
	s := ResourceStats{Name: "r", Capacity: r.capacity, Grants: r.grants, TotalWait: r.waitTotal, MaxQueueLen: r.maxQueue}
	if r.env.now > 0 {
		s.Utilization = r.busyIntegral / (r.env.now * float64(r.capacity))
		s.MeanQueueLen = r.qIntegral / r.env.now
	}
	if r.grants > 0 {
		s.MeanWait = r.waitTotal / float64(r.grants)
	}
	return s
}

// grantResource is what grantTrace drives: a Resource or the reference.
type grantResource interface {
	Acquire(p *Proc, n int)
	AcquireThen(n int, fn func())
	Release(n int)
	Stats() ResourceStats
}

// statsLine prints every Stats field, floats by their bits.
func statsLine(s ResourceStats) string {
	return fmt.Sprintf("grants=%d util=%x meanq=%x meanwait=%x totalwait=%x maxq=%d",
		s.Grants, math.Float64bits(s.Utilization), math.Float64bits(s.MeanQueueLen),
		math.Float64bits(s.MeanWait), math.Float64bits(s.TotalWait), s.MaxQueueLen)
}

// grantTrace drives a resource with the clients the fuzzer's bytes
// describe and logs every grant and release with its time and the
// kernel's sequence counter, and the resource's Stats at every whole
// second and at the end. Byte 0 sizes the resource; each client takes
// four more: its mode and request size, its arrival, its hold time and
// how many acquire/release rounds it makes. A client whose mode bit is
// set runs as callbacks through AcquireThen, the others as processes
// through Acquire. Times are tenths of a second, so the float sums in
// the accounting round.
func grantTrace(data []byte, reference bool) []string {
	env := NewEnv()
	capacity := 1 + int(data[0]%4)
	var r grantResource
	if reference {
		r = &queueingResource{env: env, capacity: capacity}
	} else {
		r = NewResource(env, "r", capacity)
	}
	var log []string
	note := func(what string, id, round int) {
		log = append(log, fmt.Sprintf("t=%v seq=%d %s%d.%d", env.now, env.seq, what, id, round))
	}
	for i, c := 0, data[1:]; len(c) >= 4 && i < 32; i, c = i+1, c[4:] {
		n := 1 + int(c[0]>>1)%capacity
		arrive, hold := Time(c[1]%32)/10, Time(c[2]%16)/10
		gap, rounds := Time(c[3]>>2%8)/10, 1+int(c[3]%4)
		if c[0]&1 == 1 {
			var round func(k int)
			round = func(k int) {
				r.AcquireThen(n, func() {
					note("grant", i, k)
					env.Schedule(hold, func() {
						r.Release(n)
						note("release", i, k)
						if k+1 < rounds {
							env.Schedule(gap, func() { round(k + 1) })
						}
					})
				})
			}
			env.Schedule(arrive, func() { round(0) })
			continue
		}
		env.Go("proc", func(p *Proc) {
			p.Sleep(arrive)
			for k := 0; k < rounds; k++ {
				r.Acquire(p, n)
				note("grant", i, k)
				p.Sleep(hold)
				r.Release(n)
				note("release", i, k)
				p.Sleep(gap)
			}
		})
	}
	for k := 1; k <= 4; k++ {
		env.Schedule(Time(k), func() { log = append(log, fmt.Sprintf("t=%v %s", env.now, statsLine(r.Stats()))) })
	}
	env.Run(Forever)
	log = append(log, fmt.Sprintf("end t=%v seq=%d %s", env.now, env.seq, statsLine(r.Stats())))
	if env.nproc != 0 {
		log = append(log, fmt.Sprintf("leftover: %d processes", env.nproc))
	}
	env.Close()
	return log
}

// FuzzResourceGrantsMatchQueueing checks Resource, whose uncontended
// grants skip the waiter queue, against a resource that queues every
// request: the same grants in the same order and (time, sequence)
// slots, and every Stats field equal to the bit, MaxQueueLen included.
func FuzzResourceGrantsMatchQueueing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0})
	f.Add([]byte{1, 2, 0, 5, 1, 1, 1, 2, 7, 3, 3, 4, 9})
	f.Add([]byte{3, 6, 1, 0, 4, 7, 0, 3, 13, 2, 1, 2, 2, 5, 9, 1, 6, 0, 0, 0, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		want, got := grantTrace(data, true), grantTrace(data, false)
		if !slices.Equal(got, want) {
			t.Fatalf("Resource diverges from the always-queueing reference:\ngot  %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	})
}

// An uncontended Acquire or AcquireThen takes no waiter record: a fresh
// resource grants and releases without allocating, and its queue and
// free list are never made.
func TestUncontendedGrantAllocatesNothing(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "r", 2)
	fn := func() {}
	allocs := -1.0
	env.Go("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			r.Acquire(p, 2)
			r.Release(2)
			r.AcquireThen(1, fn)
			r.Release(1)
		})
	})
	env.Run(Forever)
	env.Close()
	if allocs != 0 || r.waiters != nil || r.freeW != nil {
		t.Fatalf("uncontended grants allocate %.1f per cycle (queue %v, free list %v), want 0 and neither made", allocs, r.waiters, r.freeW)
	}
	if s := r.Stats(); s.Grants != 202 || s.MaxQueueLen != 1 || s.TotalWait != 0 {
		t.Fatalf("stats %+v, want 202 grants, max queue 1, no wait", s)
	}
}
