package mgmt

import (
	"fmt"

	"cloudmcp/internal/faults"
	"cloudmcp/internal/hostsim"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/sim"
)

// stage names the step a chain runs next: an attempt's stages in order,
// then a serve's two steps.
type stage uint8

const (
	atMgmtPre stage = iota
	atDBPre
	atHost
	atDataPlane
	atMgmtPost
	atDBPost
	atEnd
	atHeld
	atServed
)

// chain runs an attempt's control stages as kernel callbacks for the
// caller's process. Each step does what the process did between two of
// its yields, and each Schedule or AcquireThen takes the (time, sequence)
// slot of the wakeup it replaces, so the event order, the fault decisions
// and the breakdown sums are the process's. Frames are pooled per manager
// and copy only scalars out of the ExecSpec, which must stay on the
// caller's stack.
type chain struct {
	m               *Manager
	p               *sim.Proc
	task            *Task
	kind            ops.Kind
	attempt, writes int
	sample          ops.StageSample
	hostID          inventory.ID
	hostS           float64 // sampled host time plus the spec's extra
	body            bool

	at, then       stage          // the next step; the step after a serve
	res            *sim.Resource  // serve: the resource held, the field
	field          *float64       // its service adds to, the service time,
	secs, t0, wait float64        // when it asked, and how long it queued
	agent          *hostsim.Agent // the host stage's agent and faults
	hostOut        faults.Outcome
	dbFail         bool // the DB stage's injected failure
	fault          *faults.Error
	wal            bool // a WAL stage for the process: rows after a stall
	rows           int
	stall          float64
	inline, done   bool   // the process runs the first steps; the segment is over
	step           func() // advance, bound once
}

func (m *Manager) getChain() *chain {
	if k := len(m.chains); k > 0 {
		c := m.chains[k-1]
		m.chains = m.chains[:k-1]
		return c
	}
	c := &chain{m: m}
	c.step = c.advance
	return c
}

// run runs the chain from step at: inline on the caller's process until a
// step has to wait, then as callbacks while the process parks. The process
// runs a WAL database stage (a group commit) itself, then re-enters.
func (c *chain) run(at stage) {
	for c.at = at; ; {
		c.done, c.inline, c.wal = false, true, false
		c.advance()
		c.inline = false
		if !c.done {
			c.p.Park()
		}
		if !c.wal {
			return
		}
		bd := &c.task.Breakdown
		if c.stall > 0 {
			c.p.Sleep(c.stall)
			bd.DB += c.stall
		}
		if c.rows > 0 {
			wait, service := c.m.db.wal.Commit(c.p, c.rows)
			bd.Queue += wait
			bd.DB += service
		}
	}
}

// finish ends the segment. From a callback it unparks the caller at once:
// a wakeup event would take a new sequence number.
func (c *chain) finish() {
	c.done = true
	if !c.inline {
		c.m.env.Unpark(c.p)
	}
}

func (c *chain) fail(layer string) {
	c.fault = &faults.Error{Layer: layer, Op: c.kind.String(), Attempt: c.attempt}
	c.finish()
}

// advance runs steps until one has to wait (the callback it hands the
// kernel carries on) or the segment ends.
func (c *chain) advance() {
	m, bd := c.m, &c.task.Breakdown
	preWrites := (c.writes*6 + 9) / 10
	for {
		switch c.at {
		case atMgmtPre: // manager pre-processing, 60% of its share
			c.at = atDBPre
			if secs := c.sample.Mgmt * 0.6; secs > 0 {
				c.serve(m.threads, secs, &bd.Mgmt)
				return
			}
		case atDBPre:
			out := m.cfg.Faults.Decide(faults.LayerDB, c.kind.String(), c.task.ID, c.attempt)
			c.dbFail, c.at = out.Fail, atHost
			if c.db(c.sample.DB*0.6, preWrites, out.StallS) {
				return
			}
		case atHost:
			if c.dbFail {
				c.fail(faults.LayerDB)
				return
			}
			c.at, c.agent = atDataPlane, nil
			if c.hostID == inventory.None {
				continue
			}
			// The name is only needed on first sight of a host.
			if c.agent = m.agents.Agent(c.hostID); c.agent == nil {
				name := fmt.Sprintf("host:%d", c.hostID)
				if h := m.inv.Host(c.hostID); h != nil {
					name = h.Name
				}
				c.agent = m.agents.Ensure(c.hostID, name)
			}
			c.hostOut = m.cfg.Faults.Decide(faults.LayerHost, c.kind.String(), c.task.ID, c.attempt)
			c.serve(c.agent.Slots(), c.hostS+c.hostOut.StallS, &bd.Host)
			return
		case atDataPlane:
			if c.agent != nil { // the host stage is over
				c.agent.Record(c.wait, c.secs)
				if c.hostOut.Fail {
					c.fail(faults.LayerHost)
					return
				}
			}
			if c.body {
				c.finish()
				return
			}
			c.at = atMgmtPost
		case atMgmtPost: // manager post-processing and final DB updates
			c.at = atDBPost
			if secs := c.sample.Mgmt * 0.4; secs > 0 {
				c.serve(m.threads, secs, &bd.Mgmt)
				return
			}
		case atDBPost:
			c.at = atEnd
			if c.db(c.sample.DB*0.4, c.writes-preWrites, 0) {
				return
			}
		case atEnd:
			c.finish()
			return
		case atHeld:
			c.wait, c.at = m.env.Now()-c.t0, atServed
			m.env.Schedule(c.secs, c.step)
			return
		case atServed:
			c.res.Release(1)
			bd.Queue += c.wait
			*c.field += c.secs
			c.at = c.then
		}
	}
}

// serve holds one unit of res for secs of service, charged to *field and
// its queueing to Queue, then continues at c.at.
func (c *chain) serve(res *sim.Resource, secs float64, field *float64) {
	c.res, c.secs, c.field = res, secs, field
	c.then, c.at, c.t0 = c.at, atHeld, c.m.env.Now()
	res.AcquireThen(1, c.step)
}

// db starts a database stage and reports whether the chain now waits:
// secs plus the injected stall behind the aggregate model's connection
// pool, or a WAL stage handed to the caller's process.
func (c *chain) db(secs float64, rows int, stall float64) bool {
	if c.m.db.wal != nil {
		c.wal, c.rows, c.stall = true, rows, stall
		c.finish()
		return true
	}
	if secs += stall; secs > 0 {
		c.serve(c.m.db.pool, secs, &c.task.Breakdown.DB)
		return true
	}
	return false
}
