package report

// Reconciliation-plane accounting: how much background drift-correction
// work each controller generated, how it was paced, and how much of it
// failed. The rows are the reconciliation plane's own
// (reconcile.Plane.Stats).

import "cloudmcp/internal/reconcile"

// ReconcileTable renders per-controller reconciliation rows plus a
// totals line. Columns: controller, runs, err % (errors/runs), retries,
// drops, dedups, requeues, throttle s, and busy s. Returns nil for an
// empty row set so callers can skip rendering cleanly.
func ReconcileTable(rows []reconcile.Stats) *Table {
	if len(rows) == 0 {
		return nil
	}
	t := NewTable("reconciliation plane",
		"controller", "runs", "err %", "retries", "drops", "dedups", "requeues", "throttle s", "busy s")
	var tot reconcile.Stats
	add := func(name string, r reconcile.Stats) {
		errPct := 0.0
		if r.Runs > 0 {
			errPct = 100 * float64(r.Errors) / float64(r.Runs)
		}
		t.AddRow(name, r.Runs, errPct, r.Retries, r.Drops, r.Queue.Dedups, r.Queue.Requeues, r.ThrottleS, r.BusyS)
	}
	for _, r := range rows {
		add(r.Controller, r)
		tot.Runs += r.Runs
		tot.Errors += r.Errors
		tot.Retries += r.Retries
		tot.Drops += r.Drops
		tot.Queue.Dedups += r.Queue.Dedups
		tot.Queue.Requeues += r.Queue.Requeues
		tot.ThrottleS += r.ThrottleS
		tot.BusyS += r.BusyS
	}
	add("total", tot)
	return t
}
