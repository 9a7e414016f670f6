package mgmt

import "cloudmcp/internal/sim"

// DBRoundTrip charges one management-database round-trip of the given
// aggregate service time against this manager's database, returning the
// seconds spent queueing and in service. The multi-shard coordinator
// uses it for two-phase prepare/commit traffic; under the WAL model a
// round-trip is one real row commit (serviceS is subsumed by the
// commit's own service time).
func (m *Manager) DBRoundTrip(p *sim.Proc, serviceS float64) (wait, service float64) {
	if m.waldb != nil {
		return m.waldb.Commit(p, 1)
	}
	if serviceS <= 0 {
		return 0, 0
	}
	t0 := p.Now()
	m.db.Acquire(p, 1)
	wait = p.Now() - t0
	p.Sleep(serviceS)
	m.db.Release(1)
	return wait, serviceS
}
