// Package mgmtdb models the management database behind the
// virtualization manager — the component every task-state transition and
// inventory commit must write through, and a recurring bottleneck in the
// management-plane literature.
//
// The model has three cost centers:
//
//   - a bounded connection pool (row work holds a connection),
//   - per-row write service time, and
//   - a write-ahead log whose flushes (fsyncs) are serialized and may be
//     group-committed: commits arriving within a gather window share one
//     flush, trading a little latency for much higher commit throughput.
//
// The group-commit window is the knob the E13 ablation sweeps: at cloud
// provisioning rates, per-commit flushing makes the database the binding
// stage of the control plane, and batching relieves it.
package mgmtdb

import (
	"fmt"

	"cloudmcp/internal/sim"
	"cloudmcp/internal/stats"
)

// Config sizes the database model.
type Config struct {
	// Conns is the connection-pool size.
	Conns int `json:"conns,omitempty"`
	// WriteS is the service time per row write, seconds.
	WriteS float64 `json:"writeS,omitempty"`
	// FlushS is the WAL flush (fsync) duration, seconds.
	FlushS float64 `json:"flushS,omitempty"`
	// GroupWindowS is the group-commit gather window: a commit leader
	// waits this long for followers before flushing. 0 flushes every
	// commit individually.
	GroupWindowS float64 `json:"groupWindowS,omitempty"`
	// GroupRows extends group commit from the flush to the row work:
	// followers joining a gathering group hand their rows to the leader,
	// which acquires one pooled connection, writes every gathered row,
	// and flushes once. At high commit rates this amortizes the
	// connection acquisitions that otherwise scale with the commit count
	// — the batching lever for million-entity inventories. Off (the
	// default) reproduces the per-commit row path bit-for-bit.
	GroupRows bool `json:"groupRows,omitempty"`
}

// DefaultConfig models a modest dedicated database: 4 connections, 5 ms
// row writes, 20 ms flushes, 5 ms group-commit window.
func DefaultConfig() Config {
	return Config{Conns: 4, WriteS: 0.005, FlushS: 0.020, GroupWindowS: 0.005}
}

// Validate checks the connection count and the stage times.
func (c Config) Validate() error {
	if c.Conns <= 0 || c.WriteS < 0 || c.FlushS < 0 || c.GroupWindowS < 0 {
		return fmt.Errorf("mgmtdb: bad config %+v", c)
	}
	return nil
}

// DB is the simulated management database.
type DB struct {
	env   *sim.Env
	cfg   Config
	conns *sim.Resource
	flush *sim.Resource // serializes WAL flushes

	// group-commit state: the signal commits wait on, nil when no group
	// is gathering. groupRows accumulates the gathered row count under
	// GroupRows mode.
	group     *sim.Signal
	groupSize int
	groupRows int

	commits   int64
	flushes   int64
	rows      int64
	commitLat stats.Moments
	groupHist stats.Moments
}

// New builds a database. Its metrics register separately, through
// RegisterMetrics, so the builder can label one database among several.
func New(env *sim.Env, cfg Config) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DB{
		env:   env,
		cfg:   cfg,
		conns: sim.NewResource(env, "db.conns", cfg.Conns),
		flush: sim.NewResource(env, "db.flush", 1),
	}, nil
}

// RegisterMetrics registers pool and WAL-flush occupancy and the commit
// counters with the environment's metrics registry (if any) under the
// "mgmtdb" layer. label prefixes every resource key, so the databases of
// several manager shards stay distinguishable; "" keeps the plain keys.
func (db *DB) RegisterMetrics(label string) {
	reg := db.env.Metrics()
	if reg == nil {
		return
	}
	db.conns.RegisterMetricsAs("mgmtdb", label+"db.conns")
	db.flush.RegisterMetricsAs("mgmtdb", label+"db.flush")
	wal := label + "wal"
	reg.ScalarFunc("mgmtdb", wal, "commits", func() float64 { return float64(db.commits) })
	reg.ScalarFunc("mgmtdb", wal, "flushes", func() float64 { return float64(db.flushes) })
	reg.ScalarFunc("mgmtdb", wal, "rows", func() float64 { return float64(db.rows) })
	reg.ScalarFunc("mgmtdb", wal, "mean_commit_lat_s", func() float64 { return db.commitLat.Mean() })
	reg.ScalarFunc("mgmtdb", wal, "mean_group_size", func() float64 {
		if db.flushes == 0 {
			return 0
		}
		return db.groupHist.Mean()
	})
}

// Commit writes `writes` rows and makes them durable, blocking p for the
// whole transaction. It returns (waitS, serviceS): time spent queued for
// shared resources vs. time attributable to database work itself.
func (db *DB) Commit(p *sim.Proc, writes int) (waitS, serviceS float64) {
	if writes <= 0 {
		return 0, 0
	}
	if db.cfg.GroupRows {
		return db.commitGrouped(p, writes)
	}
	t0 := p.Now()

	// Row work on a pooled connection.
	db.conns.Acquire(p, 1)
	waitS += p.Now() - t0
	rowS := float64(writes) * db.cfg.WriteS
	p.Sleep(rowS)
	db.conns.Release(1)
	serviceS += rowS

	// Durability: join the gathering group, or lead a new one.
	d0 := p.Now()
	if db.group != nil {
		// Follower: the leader's flush will make this commit durable.
		db.groupSize++
		db.group.Wait(p)
	} else {
		sig := sim.NewSignal(db.env)
		db.group = sig
		db.groupSize = 1
		if db.cfg.GroupWindowS > 0 {
			p.Sleep(db.cfg.GroupWindowS)
		}
		// Close the group before flushing so commits arriving during
		// the flush form the next group instead of missing durability.
		size := db.groupSize
		db.group = nil
		db.groupSize = 0

		fw := p.Now()
		db.flush.Acquire(p, 1)
		waitS += p.Now() - fw
		p.Sleep(db.cfg.FlushS)
		db.flush.Release(1)

		db.flushes++
		db.groupHist.Add(float64(size))
		sig.Fire()
	}
	serviceS += p.Now() - d0
	// Conservatively count the whole durability phase as service for the
	// follower too: from the caller's perspective it is database time.

	db.commits++
	db.rows += int64(writes)
	db.commitLat.Add(p.Now() - t0)
	return waitS, serviceS
}

// commitGrouped is Commit under GroupRows: one leader gathers follower
// rows for the group window, then writes the whole batch over a single
// pooled connection and flushes once. Followers' entire stay — gather,
// batched row work, flush — counts as database service time, matching
// the conservative accounting of the ungrouped follower path.
func (db *DB) commitGrouped(p *sim.Proc, writes int) (waitS, serviceS float64) {
	t0 := p.Now()
	if db.group != nil {
		// Follower: hand rows to the gathering leader; its single
		// write+flush makes this commit durable.
		db.groupSize++
		db.groupRows += writes
		db.group.Wait(p)
		db.commits++
		db.rows += int64(writes)
		db.commitLat.Add(p.Now() - t0)
		return 0, p.Now() - t0
	}
	sig := sim.NewSignal(db.env)
	db.group = sig
	db.groupSize = 1
	db.groupRows = writes
	if db.cfg.GroupWindowS > 0 {
		p.Sleep(db.cfg.GroupWindowS)
	}
	// Close the group before touching shared resources so commits
	// arriving during the batched write or flush form the next group.
	size, rows := db.groupSize, db.groupRows
	db.group = nil
	db.groupSize, db.groupRows = 0, 0

	aw := p.Now()
	db.conns.Acquire(p, 1)
	waitS += p.Now() - aw
	p.Sleep(float64(rows) * db.cfg.WriteS)
	db.conns.Release(1)

	fw := p.Now()
	db.flush.Acquire(p, 1)
	waitS += p.Now() - fw
	p.Sleep(db.cfg.FlushS)
	db.flush.Release(1)

	db.flushes++
	db.groupHist.Add(float64(size))
	sig.Fire()

	serviceS = (p.Now() - t0) - waitS
	db.commits++
	db.rows += int64(writes)
	db.commitLat.Add(p.Now() - t0)
	return waitS, serviceS
}

// Stats is a snapshot of database activity.
type Stats struct {
	Commits       int64
	Flushes       int64
	Rows          int64
	MeanCommitLat float64
	MeanGroupSize float64
	ConnStats     sim.ResourceStats
	FlushStats    sim.ResourceStats
}

// Stats returns accumulated statistics.
func (db *DB) Stats() Stats {
	s := Stats{
		Commits:       db.commits,
		Flushes:       db.flushes,
		Rows:          db.rows,
		MeanCommitLat: db.commitLat.Mean(),
		ConnStats:     db.conns.Stats(),
		FlushStats:    db.flush.Stats(),
	}
	if db.flushes > 0 {
		s.MeanGroupSize = db.groupHist.Mean()
	}
	return s
}
