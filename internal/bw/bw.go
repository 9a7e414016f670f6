// Package bw provides a fair-share bandwidth engine: a shared link or
// array whose aggregate bandwidth is divided equally among all in-flight
// transfers (processor sharing). Datastore copy engines (package storage)
// are its instances.
package bw

import (
	"fmt"
	"math"

	"cloudmcp/internal/metrics"
	"cloudmcp/internal/sim"
)

// Engine is a fair-share transfer engine for one shared link or array.
type Engine struct {
	env    *sim.Env
	name   string
	bwMBps float64

	// active holds the in-flight transfers in start order, so transfers
	// finishing at one instant wake their processes in that order.
	active     []*transfer
	lastUpdate sim.Time
	timer      sim.Timer
	complete   func() // cached e.onComplete method value (reschedule hot path)

	// freeT recycles transfer records (and their completion signals) so
	// steady-state copies do not allocate.
	freeT []*transfer

	// stats
	bytesMB      float64
	transfers    int64
	busyIntegral float64 // ∫ min(1, active) dt — fraction of time busy
	loadIntegral float64 // ∫ active dt — mean concurrent transfers
}

type transfer struct {
	remainingMB float64
	done        *sim.Signal
	started     sim.Time
}

// NewEngine creates an engine with the given aggregate bandwidth in MB/s.
func NewEngine(env *sim.Env, name string, bwMBps float64) *Engine {
	if bwMBps <= 0 {
		panic(fmt.Sprintf("storage: engine %q bandwidth %v", name, bwMBps))
	}
	return &Engine{env: env, name: name, bwMBps: bwMBps}
}

// update advances all in-flight transfers to the current virtual time.
func (e *Engine) update() {
	now := e.env.Now()
	dt := now - e.lastUpdate
	e.lastUpdate = now
	k := len(e.active)
	if dt <= 0 {
		return
	}
	if k > 0 {
		e.busyIntegral += dt
		e.loadIntegral += dt * float64(k)
		per := dt * e.bwMBps / float64(k)
		for _, t := range e.active {
			t.remainingMB -= per
		}
	}
}

// reschedule arms a completion event for the transfer that will finish
// first under the current sharing level.
func (e *Engine) reschedule() {
	e.timer.Stop() // no-op when unarmed or already fired
	e.timer = sim.Timer{}
	k := len(e.active)
	if k == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, t := range e.active {
		if t.remainingMB < minRem {
			minRem = t.remainingMB
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	delay := minRem * float64(k) / e.bwMBps
	// Clamp the delay away from zero: at large clock values a sub-ULP
	// delay would leave virtual time unchanged, the elapsed-time update
	// would subtract nothing, and the completion event would reschedule
	// itself forever at the same instant. One microsecond is far above
	// the float64 ULP of any reachable clock value and far below any
	// transfer time that matters.
	if delay < minDelayS {
		delay = minDelayS
	}
	if e.complete == nil {
		e.complete = e.onComplete
	}
	e.timer = e.env.Schedule(delay, e.complete)
}

// minDelayS is the smallest completion delay reschedule will arm.
const minDelayS = 1e-6

// finishEpsMB treats transfers with less than a byte outstanding as done,
// absorbing the float error accumulated by repeated fair-share updates.
const finishEpsMB = 1e-6

func (e *Engine) onComplete() {
	e.timer = sim.Timer{}
	e.update()
	live := e.active[:0]
	for _, t := range e.active {
		if t.remainingMB > finishEpsMB {
			live = append(live, t)
			continue
		}
		t.done.Fire()
		// The signal's waiters are already scheduled for wakeup and
		// nothing else references t, so the record can be recycled.
		e.freeT = append(e.freeT, t)
	}
	clear(e.active[len(live):])
	e.active = live
	e.reschedule()
}

// Copy blocks p while sizeMB megabytes are transferred, sharing bandwidth
// fairly with every other in-flight transfer on this engine. A zero or
// negative size returns immediately.
func (e *Engine) Copy(p *sim.Proc, sizeMB float64) {
	if sizeMB <= 0 {
		return
	}
	e.update()
	var t *transfer
	if n := len(e.freeT); n > 0 {
		t = e.freeT[n-1]
		e.freeT[n-1] = nil
		e.freeT = e.freeT[:n-1]
		t.remainingMB, t.started = sizeMB, e.env.Now()
	} else {
		t = &transfer{remainingMB: sizeMB, done: sim.NewSignal(e.env), started: e.env.Now()}
	}
	e.active = append(e.active, t)
	e.transfers++
	e.bytesMB += sizeMB
	e.reschedule()
	t.done.Wait(p)
}

// EngineStats is a snapshot of transfer statistics.
type EngineStats struct {
	Name        string
	Transfers   int64
	BytesMB     float64
	BusyFrac    float64 // fraction of virtual time with >=1 transfer
	MeanActive  float64 // time-averaged concurrent transfers
	Utilization float64 // delivered / available bandwidth
}

// RegisterMetrics registers the engine's busy-fraction and concurrency
// statistics with the environment's metrics registry under the given
// layer, keyed by the engine's name. Utilization is the fraction of
// virtual time with at least one transfer in flight (the engine is work
// conserving, so busy time equals delivered-bandwidth time); the
// time-averaged transfer count stands in for queue length, and the
// scalar series carries total megabytes moved. No-op when metrics are
// disabled.
func (e *Engine) RegisterMetrics(layer string) {
	reg := e.env.Metrics()
	if reg == nil {
		return
	}
	reg.ResourceFunc(layer, e.name, func() metrics.ResourceSample {
		s := e.Stats()
		return metrics.ResourceSample{
			Capacity:     1,
			Utilization:  s.BusyFrac,
			MeanQueueLen: s.MeanActive,
			Grants:       s.Transfers,
		}
	})
	reg.ScalarFunc(layer, e.name, "bytes_mb", func() float64 { return e.bytesMB })
}

// Stats returns statistics accumulated since the engine was created,
// evaluated at the current virtual time.
func (e *Engine) Stats() EngineStats {
	e.update()
	now := e.env.Now()
	s := EngineStats{Name: e.name, Transfers: e.transfers, BytesMB: e.bytesMB}
	if now > 0 {
		s.BusyFrac = e.busyIntegral / now
		s.MeanActive = e.loadIntegral / now
		// Delivered bandwidth equals bwMBps whenever busy (work conserving).
		s.Utilization = e.busyIntegral * e.bwMBps / (now * e.bwMBps)
	}
	return s
}
