// Package netsim models the management/vMotion network: the shared link
// live-migration memory copies travel over. Without it, migration memory
// copies are charged as host-agent time (each host working alone); with
// it, concurrent migrations contend for one fair-share link — which is
// what makes evacuation trains and DRS storms stretch each other out.
package netsim

import (
	"fmt"

	"cloudmcp/internal/bw"
	"cloudmcp/internal/sim"
)

// Config sizes the management network.
type Config struct {
	// MBps is the aggregate vMotion bandwidth (e.g. 1250 for 10 GbE).
	MBps float64 `json:"mbps,omitempty"`
}

// DefaultConfig is a single 10 GbE vMotion network.
func DefaultConfig() Config { return Config{MBps: 1250} }

// Network is the simulated migration network.
type Network struct {
	link *bw.Engine
}

// New builds a network. The link's occupancy registers with the
// environment's metrics registry (if any) under the "net" layer.
func New(env *sim.Env, cfg Config) (*Network, error) {
	if cfg.MBps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %v", cfg.MBps)
	}
	n := &Network{link: bw.NewEngine(env, "vmotion", cfg.MBps)}
	n.link.RegisterMetrics("net")
	return n, nil
}

// MigrateMemory transfers memMB of guest memory for a live migration,
// blocking p and sharing the link fairly with concurrent migrations.
func (n *Network) MigrateMemory(p *sim.Proc, memMB int) {
	if memMB <= 0 {
		return
	}
	n.link.Copy(p, float64(memMB))
}
