package mgmt

import (
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/sim"
)

// DB is the management database a manager writes through: the
// aggregate model, a connection pool charged a sampled service time per
// interaction, or mgmtdb's write-ahead-log model when Config.Database
// is set, where each interaction is real row commits with group-commit
// durability. A plane builds one per shard or one that every shard
// shares; nothing outside DB depends on which model it holds. An
// operation's own database stages run as steps of its chain (chain.go);
// RoundTrip serves the plane's two-phase traffic.
type DB struct {
	name string
	pool *sim.Resource // aggregate model; nil under the WAL model
	wal  *mgmtdb.DB    // WAL model; nil under the aggregate model
}

// NewDB builds the database cfg selects and registers its metrics.
// label prefixes its resource names and metrics keys ("" for a database
// that is alone or shared by every shard, "shardN." for a shard's own).
// DBConns sizes the aggregate pool and is ignored under the WAL model.
func NewDB(env *sim.Env, label string, cfg Config) (*DB, error) {
	if cfg.Database != nil {
		wal, err := mgmtdb.New(env, *cfg.Database)
		if err != nil {
			return nil, err
		}
		wal.RegisterMetrics(label)
		return &DB{name: label + "mgmt.db(wal)", wal: wal}, nil
	}
	pool := sim.NewResource(env, label+"mgmt.db", cfg.DBConns)
	pool.RegisterMetrics("mgmt")
	return &DB{name: label + "mgmt.db", pool: pool}, nil
}

// Name is the database's stage name in bottleneck reports.
func (db *DB) Name() string { return db.name }

// Stats returns the binding stage's statistics: the connection pool's
// under the aggregate model, the WAL flush's under the WAL model.
func (db *DB) Stats() sim.ResourceStats {
	if db.wal != nil {
		return db.wal.Stats().FlushStats
	}
	return db.pool.Stats()
}

// WALStats returns the WAL model's commit statistics; zero under the
// aggregate model.
func (db *DB) WALStats() mgmtdb.Stats {
	if db.wal == nil {
		return mgmtdb.Stats{}
	}
	return db.wal.Stats()
}

// RoundTrip charges one round-trip of the given aggregate service time,
// returning the seconds spent queueing and in service. The multi-shard
// coordinator uses it for two-phase prepare/commit traffic; under the
// WAL model a round-trip is one row commit (serviceS is subsumed by the
// commit's own service time).
func (db *DB) RoundTrip(p *sim.Proc, serviceS float64) (wait, service float64) {
	if db.wal != nil {
		return db.wal.Commit(p, 1)
	}
	if serviceS <= 0 {
		return 0, 0
	}
	t0 := p.Now()
	db.pool.Acquire(p, 1)
	wait = p.Now() - t0
	p.Sleep(serviceS)
	db.pool.Release(1)
	return wait, serviceS
}
