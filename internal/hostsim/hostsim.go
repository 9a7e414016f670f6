// Package hostsim models the per-host management agents. Every hypervisor
// host runs an agent that executes the host-side portion of management
// operations (create/register VM, power transitions, snapshot plumbing)
// with a bounded number of concurrent operation slots — a real and often
// binding control-plane limit when many deploys land on the same host.
package hostsim

import (
	"fmt"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// DefaultSlots is the default number of concurrent host operations an
// agent admits, matching typical host-agent throttles.
const DefaultSlots = 8

// Agent is the management agent of one host.
type Agent struct {
	hostID inventory.ID
	slots  *sim.Resource

	ops      int64
	busyTime float64
	waitTime float64
}

// NewAgent creates an agent with the given concurrency (slots > 0). Its
// slot occupancy registers with the environment's metrics registry (if
// any) under the "host" layer.
func NewAgent(env *sim.Env, hostID inventory.ID, name string, slots int) *Agent {
	if slots <= 0 {
		panic(fmt.Sprintf("hostsim: agent %q slots %d", name, slots))
	}
	a := &Agent{hostID: hostID, slots: sim.NewResource(env, "hostagent:"+name, slots)}
	a.slots.RegisterMetrics("host")
	return a
}

// Slots is the agent's operation-slot resource. Host-side work holds
// one slot for its service time; a caller that runs it as kernel
// callbacks takes the slot with AcquireThen and, once it has released
// it, reports the operation to Record.
func (a *Agent) Slots() *sim.Resource { return a.slots }

// Record accounts one finished operation that queued waited seconds for
// its slot and held it for served seconds.
func (a *Agent) Record(waited, served float64) {
	a.ops++
	a.busyTime += served
	a.waitTime += waited
}

// Stats summarizes the agent's activity.
type Stats struct {
	HostID   inventory.ID
	Ops      int64
	MeanWait float64
	Busy     float64 // total service seconds
	Util     sim.ResourceStats
}

// Stats returns accumulated statistics.
func (a *Agent) Stats() Stats {
	s := Stats{HostID: a.hostID, Ops: a.ops, Busy: a.busyTime, Util: a.slots.Stats()}
	if a.ops > 0 {
		s.MeanWait = a.waitTime / float64(a.ops)
	}
	return s
}

// Registry maps hosts to their agents.
type Registry struct {
	env    *sim.Env
	slots  int
	agents map[inventory.ID]*Agent
}

// NewRegistry creates agents (with the given slot count) for every host in
// inv. Hosts added later get agents on first use via Ensure.
func NewRegistry(env *sim.Env, inv *inventory.Inventory, slots int) *Registry {
	r := &Registry{env: env, slots: slots, agents: make(map[inventory.ID]*Agent)}
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		r.agents[id] = NewAgent(env, id, h.Name, slots)
	}
	return r
}

// Agent returns the agent for host id, or nil.
func (r *Registry) Agent(id inventory.ID) *Agent { return r.agents[id] }

// Ensure returns the agent for host id, creating one if needed.
func (r *Registry) Ensure(id inventory.ID, name string) *Agent {
	if a, ok := r.agents[id]; ok {
		return a
	}
	a := NewAgent(r.env, id, name, r.slots)
	r.agents[id] = a
	return a
}
