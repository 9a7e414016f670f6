package main

import (
	"math/rand"
	"sync"
	"time"
)

// The serve-paced load: closed-loop clients, as automation that drives a
// cloud API one operation at a time does. Each client instantiates a
// one-VM vApp, polls the task until it resolves, deletes the vApp and
// polls the delete until it resolves, sending every request as soon as
// the previous reply arrives; client 0 also reads its org (the Paced.Do
// path) once per operation. Each client has at most one operation in
// flight, so the simulated cloud never builds a backlog, and the process
// never idles. An open loop below saturation leaves the process idle
// between requests, and on a shared VM a request that follows an idle
// spell pays for waking the vCPU and refilling its caches: its latency
// and CPU per request spread by 10–20% between runs of the same code,
// against 5–6% for the closed loop (see bench/README.md).

// loadConfig shapes one generator run.
type loadConfig struct {
	Seed      int64
	Duration  time.Duration // clients start no operation after it
	Clients   int
	Orgs      int
	Templates int
	// Grace bounds the drain: a task still pending Grace after Duration
	// is no longer polled, and its operation counts as failed.
	Grace time.Duration
}

// taskState is what a poll observed.
type taskState int

const (
	taskPending taskState = iota
	taskSucceeded
	taskFailed
)

// client issues the generator's requests; the HTTP client talks to the
// served API and tests substitute a fake.
type client interface {
	instantiate(org, tpl int) (task int64, err error)
	poll(org int, task int64) (state taskState, vapp int64, err error)
	remove(org int, vapp int64) (task int64, err error)
	read(org int) error
}

// clock is the generator's time source; tests substitute a fake.
type clock interface{ now() time.Duration }

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

// loadStats is what the generator measured, latencies in ms.
type loadStats struct {
	WriteMS []float64 `json:"write_ms"` // POST/DELETE until 202
	PollMS  []float64 `json:"poll_ms"`  // task polls
	ReadMS  []float64 `json:"read_ms"`  // org reads (the Paced.Do path)
	OpMS    []float64 `json:"op_ms"`    // instantiate sent → success observed

	Requests       int64   `json:"requests"`
	Failed         int64   `json:"failed"` // failed requests plus failed or cut-off operations
	Instantiated   int64   `json:"instantiated"`
	Deleted        int64   `json:"deleted"`
	DeleteResolved int64   `json:"delete_resolved"`
	WallS          float64 `json:"wall_s"`
}

// requestMS pools every request's latency.
func (s *loadStats) requestMS() []float64 {
	out := make([]float64, 0, len(s.WriteMS)+len(s.PollMS)+len(s.ReadMS))
	out = append(out, s.WriteMS...)
	out = append(out, s.PollMS...)
	return append(out, s.ReadMS...)
}

func (s *loadStats) add(o *loadStats) {
	s.WriteMS = append(s.WriteMS, o.WriteMS...)
	s.PollMS = append(s.PollMS, o.PollMS...)
	s.ReadMS = append(s.ReadMS, o.ReadMS...)
	s.OpMS = append(s.OpMS, o.OpMS...)
	s.Requests += o.Requests
	s.Failed += o.Failed
	s.Instantiated += o.Instantiated
	s.Deleted += o.Deleted
	s.DeleteResolved += o.DeleteResolved
}

// runLoad runs cfg.Clients closed-loop clients until cfg.Duration, lets
// each finish its operation in flight, and returns what they measured.
func runLoad(cfg loadConfig, cl client, clk clock) *loadStats {
	per := make([]loadStats, cfg.Clients)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := loadClient{cfg: cfg, cl: cl, clk: clk, reads: i == 0, st: &per[i],
				r: rand.New(rand.NewSource(cfg.Seed*int64(cfg.Clients) + int64(i)))}
			g.run()
		}(i)
	}
	wg.Wait()
	var st loadStats
	for i := range per {
		st.add(&per[i])
	}
	st.WallS = clk.now().Seconds()
	return &st
}

// loadClient is one closed-loop client; its org and template draws come
// from its own stream of the seed.
type loadClient struct {
	cfg   loadConfig
	cl    client
	clk   clock
	r     *rand.Rand
	reads bool
	st    *loadStats
}

func (g *loadClient) run() {
	for g.clk.now() < g.cfg.Duration {
		org, tpl := g.r.Intn(g.cfg.Orgs), g.r.Intn(g.cfg.Templates)
		start := g.clk.now()
		g.st.Instantiated++
		var task int64
		if g.time(&g.st.WriteMS, func() (err error) { task, err = g.cl.instantiate(org, tpl); return }) != nil {
			continue
		}
		if g.reads {
			// A failed read is counted by time; the operation goes on.
			_ = g.time(&g.st.ReadMS, func() error { return g.cl.read(org) })
		}
		vapp, ok := g.await(org, task)
		if !ok {
			continue
		}
		g.st.OpMS = append(g.st.OpMS, ms(g.clk.now()-start))
		g.st.Deleted++
		if g.time(&g.st.WriteMS, func() (err error) { task, err = g.cl.remove(org, vapp); return }) != nil {
			continue
		}
		if _, ok := g.await(org, task); ok {
			g.st.DeleteResolved++
		}
	}
}

// await polls a task until it resolves, and reports the vApp of a
// successful one. A failed task or request, or one still pending past
// the drain grace, fails the operation.
func (g *loadClient) await(org int, task int64) (vapp int64, ok bool) {
	for {
		var state taskState
		if g.time(&g.st.PollMS, func() (err error) { state, vapp, err = g.cl.poll(org, task); return }) != nil {
			return 0, false
		}
		switch {
		case state == taskSucceeded:
			return vapp, true
		case state == taskFailed || g.clk.now() > g.cfg.Duration+g.cfg.Grace:
			g.st.Failed++
			return 0, false
		}
	}
}

// time makes one request, records its latency in dst and counts it.
func (g *loadClient) time(dst *[]float64, req func() error) error {
	t0 := g.clk.now()
	err := req()
	*dst = append(*dst, ms(g.clk.now()-t0))
	g.st.Requests++
	if err != nil {
		g.st.Failed++
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
