package report

// Goodput accounting under fault injection: how much of the control
// plane's work produced successful operations, and how much was retry
// amplification. The rows are the manager's own (mgmt.Manager.Goodput,
// summed over shards by plane.Plane.Goodput).

import "cloudmcp/internal/mgmt"

// GoodputTable renders per-kind goodput rows plus a totals line.
// Columns: kind, tasks, ok, goodput % (ok/tasks), attempts,
// amplification (attempts per task), and give-ups. Returns nil for an
// empty row set so callers can skip rendering cleanly.
func GoodputTable(rows []mgmt.GoodputRow) *Table {
	if len(rows) == 0 {
		return nil
	}
	t := NewTable("goodput under fault injection",
		"operation", "tasks", "ok", "goodput %", "attempts", "amp", "giveups")
	var tot mgmt.GoodputRow
	add := func(name string, r mgmt.GoodputRow) {
		goodput, amp := 0.0, 0.0
		if r.Tasks > 0 {
			goodput = 100 * float64(r.OK) / float64(r.Tasks)
			amp = float64(r.Attempts) / float64(r.Tasks)
		}
		t.AddRow(name, r.Tasks, r.OK, goodput, r.Attempts, amp, r.GiveUps)
	}
	for _, r := range rows {
		add(r.Kind.String(), r)
		tot.Tasks += r.Tasks
		tot.OK += r.OK
		tot.Attempts += r.Attempts
		tot.GiveUps += r.GiveUps
	}
	add("total", tot)
	return t
}
