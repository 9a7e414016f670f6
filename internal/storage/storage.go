// Package storage simulates the data plane of shared datastores: bulk disk
// copies for full clones, delta-disk creation for linked clones, snapshot
// consolidation, and the bandwidth contention between them.
//
// Each datastore owns a fair-share transfer Engine: the datastore's
// aggregate copy bandwidth is divided equally among all in-flight
// transfers (processor sharing). This is the property that makes full-
// clone provisioning throughput flatten as concurrency rises — adding
// clones past the bandwidth knee only stretches every clone — which in
// turn is the baseline the paper's linked-clone result is measured
// against.
package storage

import (
	"fmt"

	"cloudmcp/internal/bw"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// Engine is a fair-share transfer engine for one datastore; see
// package bw for the sharing model.
type Engine = bw.Engine

// NewEngine creates an engine with the given aggregate bandwidth in MB/s.
func NewEngine(env *sim.Env, name string, bwMBps float64) *Engine {
	return bw.NewEngine(env, name, bwMBps)
}

// Pool owns one Engine per datastore of an inventory and implements the
// higher-level storage operations the control plane issues.
type Pool struct {
	env     *sim.Env
	inv     *inventory.Inventory
	engines map[inventory.ID]*Engine

	// Policy knobs (defaults match DefaultPolicy).
	Policy Policy
}

// Policy holds the storage-behaviour knobs the experiments sweep.
type Policy struct {
	// DeltaDiskGB is the space reserved for a linked clone's delta disk
	// (its expected working set).
	DeltaDiskGB float64 `json:"deltaDiskGB,omitempty"`
	// DeltaWriteMB is the bytes actually written at deploy time — delta
	// creation is nearly a metadata operation, which is exactly why fast
	// provisioning shifts the deploy bottleneck to the control plane.
	DeltaWriteMB float64 `json:"deltaWriteMB,omitempty"`
	// MaxChainLen is the longest permitted linked-clone/redo-log chain
	// (clones per shadow base). Deploys that would exceed it force a new
	// shadow copy first.
	MaxChainLen int `json:"maxChainLen,omitempty"`
	// SnapshotGB is the space charged per snapshot.
	SnapshotGB float64 `json:"snapshotGB,omitempty"`
}

// DefaultPolicy mirrors common production settings: 1 GB reserved delta
// written lazily (64 MB at creation), chains capped at 30, 2 GB
// snapshots.
func DefaultPolicy() Policy {
	return Policy{DeltaDiskGB: 1.0, DeltaWriteMB: 64, MaxChainLen: 30, SnapshotGB: 2.0}
}

// NewPool builds an engine for every datastore currently in inv. Each
// engine's bandwidth occupancy registers with the environment's metrics
// registry (if any) under the "storage" layer.
func NewPool(env *sim.Env, inv *inventory.Inventory) *Pool {
	p := &Pool{env: env, inv: inv, engines: make(map[inventory.ID]*Engine), Policy: DefaultPolicy()}
	for _, id := range inv.Datastores() {
		ds := inv.Datastore(id)
		p.engines[id] = NewEngine(env, ds.Name, ds.BandwidthMBps)
		p.engines[id].RegisterMetrics("storage")
	}
	return p
}

// Engine returns the engine for datastore id, or nil.
func (p *Pool) Engine(id inventory.ID) *Engine { return p.engines[id] }

// FullCopy transfers a template's full base disk onto ds (a full clone's
// data-plane cost), blocking proc for the duration.
func (p *Pool) FullCopy(proc *sim.Proc, ds inventory.ID, sizeGB float64) error {
	e := p.engines[ds]
	if e == nil {
		return fmt.Errorf("storage: no engine for datastore %d", ds)
	}
	e.Copy(proc, sizeGB*1024)
	return nil
}

// CrossCopy moves sizeGB between two datastores (storage migration,
// rebalancing). Read and write streams proceed in lockstep, so the
// transfer occupies both engines simultaneously and finishes when the
// slower side does; we model it as concurrent transfers on both engines.
func (p *Pool) CrossCopy(proc *sim.Proc, src, dst inventory.ID, sizeGB float64) error {
	se, de := p.engines[src], p.engines[dst]
	if se == nil || de == nil {
		return fmt.Errorf("storage: missing engine for cross copy %d->%d", src, dst)
	}
	if sizeGB <= 0 {
		return nil
	}
	// Run the source-side read as a helper process; wait for both.
	doneSrc := sim.NewSignal(p.env)
	p.env.Go("crosscopy-src", func(hp *sim.Proc) {
		se.Copy(hp, sizeGB*1024)
		doneSrc.Fire()
	})
	de.Copy(proc, sizeGB*1024)
	if doneSrc.Fires() == 0 {
		doneSrc.Wait(proc)
	}
	return nil
}

// LinkedCloneDelta writes the initial delta disk for a linked clone and
// returns the space reserved for it in GB. The write itself is small by
// design (Policy.DeltaWriteMB); this is the whole point of fast
// provisioning.
func (p *Pool) LinkedCloneDelta(proc *sim.Proc, ds inventory.ID) (float64, error) {
	e := p.engines[ds]
	if e == nil {
		return 0, fmt.Errorf("storage: no engine for datastore %d", ds)
	}
	e.Copy(proc, p.Policy.DeltaWriteMB)
	return p.Policy.DeltaDiskGB, nil
}

// Consolidate collapses a VM's snapshot/redo chain, copying chainLen
// deltas' worth of data on the VM's datastore.
func (p *Pool) Consolidate(proc *sim.Proc, ds inventory.ID, chainLen int) error {
	e := p.engines[ds]
	if e == nil {
		return fmt.Errorf("storage: no engine for datastore %d", ds)
	}
	e.Copy(proc, float64(chainLen)*p.Policy.DeltaDiskGB*1024)
	return nil
}

// MostAndLeastFilled returns the datastore IDs with the highest and lowest
// fill fraction (ties broken by creation order), or (None, None) when the
// inventory has fewer than two datastores. The rebalancer uses this pair.
func (p *Pool) MostAndLeastFilled() (most, least inventory.ID) {
	ids := p.inv.Datastores()
	if len(ids) < 2 {
		return inventory.None, inventory.None
	}
	most, least = ids[0], ids[0]
	for _, id := range ids[1:] {
		d := p.inv.Datastore(id)
		if d.FillFraction() > p.inv.Datastore(most).FillFraction() {
			most = id
		}
		if d.FillFraction() < p.inv.Datastore(least).FillFraction() {
			least = id
		}
	}
	return most, least
}

// Imbalance returns the difference in fill fraction between the most- and
// least-filled datastores (0 with fewer than two datastores).
func (p *Pool) Imbalance() float64 {
	most, least := p.MostAndLeastFilled()
	if most == inventory.None {
		return 0
	}
	return p.inv.Datastore(most).FillFraction() - p.inv.Datastore(least).FillFraction()
}
