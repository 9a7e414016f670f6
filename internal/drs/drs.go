// Package drs models the compute load balancer (distributed resource
// scheduling): a background control-plane service that periodically
// evaluates host memory imbalance and live-migrates VMs from the most-
// to the least-loaded hosts. Like the storage rebalancer, it is
// management work the infrastructure generates for itself — and in a
// self-service cloud, placement churn from rapid provisioning keeps it
// permanently busy.
package drs

import (
	"fmt"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/reconcile"
	"cloudmcp/internal/sim"
)

// Config tunes the balancer. The JSON tags name the scenario file's drs
// fields (internal/core).
type Config struct {
	// Threshold is the host memory-utilization spread (max-min fraction)
	// above which a pass migrates VMs. <= 0 disables the balancer.
	Threshold float64 `json:"threshold,omitempty"`
	// CheckS is the evaluation period.
	CheckS float64 `json:"checkS,omitempty"`
	// Batch caps migrations per pass.
	Batch int `json:"batch,omitempty"`
}

// DefaultConfig checks every 5 minutes and acts on a 25% spread.
func DefaultConfig() Config {
	return Config{Threshold: 0.25, CheckS: 300, Batch: 4}
}

// Validate checks the balancer's period and batch when it is enabled.
func (c Config) Validate() error {
	if c.Threshold > 0 && (c.CheckS <= 0 || c.Batch <= 0) {
		return fmt.Errorf("drs: enabled with bad period/batch %+v", c)
	}
	return nil
}

// PassRecord summarizes one balancing pass that moved VMs.
type PassRecord struct {
	Start, End   sim.Time
	Moved        int
	SpreadBefore float64
	SpreadAfter  float64
}

// Balancer is the DRS service for one management plane.
type Balancer struct {
	env   *sim.Env
	plane *plane.Plane
	move  policy.MovePolicy
	cfg   Config

	passes    []PassRecord
	starts    int64
	moves     int64
	balancing bool
}

// New builds a balancer over the management plane; move picks which VM
// a pass migrates. Its moves route to the shard owning the source host,
// crossing shards through the plane's coordinator when the destination
// lives elsewhere.
func New(env *sim.Env, pl *plane.Plane, move policy.MovePolicy, cfg Config) (*Balancer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Balancer{env: env, plane: pl, move: move, cfg: cfg}, nil
}

// Start launches the periodic evaluation process (no-op when disabled).
// The loop runs on the shared reconciliation primitive, whose shape is
// pinned to the hand-rolled loop this used (TestStartMatchesHandRolledLoop).
func (b *Balancer) Start() {
	if b.cfg.Threshold <= 0 {
		return
	}
	reconcile.StartLoop(b.env, "drs", b.cfg.CheckS, b.BalanceOnce)
}

// Stats summarizes balancer activity.
type Stats struct {
	Passes    int64 // passes that decided to act
	Moves     int64 // migrations issued
	Completed []PassRecord
}

// Stats returns accumulated activity.
func (b *Balancer) Stats() Stats {
	return Stats{Passes: b.starts, Moves: b.moves, Completed: append([]PassRecord(nil), b.passes...)}
}

// Spread returns the memory-utilization gap between the most- and
// least-loaded in-service hosts (0 with fewer than two).
func (b *Balancer) Spread() float64 {
	hi, lo, ok := b.extremes()
	if !ok {
		return 0
	}
	return memUtil(hi) - memUtil(lo)
}

func memUtil(h *inventory.Host) float64 {
	if h.MemMB == 0 {
		return 0
	}
	return float64(h.UsedMemMB) / float64(h.MemMB)
}

func (b *Balancer) extremes() (hi, lo *inventory.Host, ok bool) {
	inv := b.plane.Inventory()
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !h.InService() {
			continue
		}
		if hi == nil || memUtil(h) > memUtil(hi) {
			hi = h
		}
		if lo == nil || memUtil(h) < memUtil(lo) {
			lo = h
		}
	}
	return hi, lo, hi != nil && lo != nil && hi != lo
}

// BalanceOnce evaluates the spread and, if above threshold, migrates up
// to Batch VMs from the hottest to the coolest hosts. Passes do not
// overlap.
func (b *Balancer) BalanceOnce(p *sim.Proc) {
	if b.balancing {
		return
	}
	before := b.Spread()
	if before <= b.cfg.Threshold {
		return
	}
	b.balancing = true
	defer func() { b.balancing = false }()
	b.starts++
	start := p.Now()
	moved := 0
	for i := 0; i < b.cfg.Batch; i++ {
		hi, lo, ok := b.extremes()
		if !ok || memUtil(hi)-memUtil(lo) <= b.cfg.Threshold/2 {
			break
		}
		vm := b.move.Pick(b.plane.Inventory(), hi, lo)
		if vm == nil {
			break
		}
		b.moves++
		task := b.plane.Migrate(p, vm, lo, mgmt.ReqCtx{Org: "system"})
		if task.Err != nil {
			break
		}
		moved++
	}
	if moved > 0 {
		b.passes = append(b.passes, PassRecord{
			Start: start, End: p.Now(), Moved: moved,
			SpreadBefore: before, SpreadAfter: b.Spread(),
		})
	}
}
