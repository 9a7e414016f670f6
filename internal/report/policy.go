package report

// Policy-tournament accounting: how competing decision policies score
// on the axes the paper's methodology cares about — goodput, tail
// latency, and the migration churn a policy induces. Rows are
// layer-agnostic so both E21 and mcpsweep -policy rank and render
// through the same code.

import "sort"

// PolicyResult is one grid point's outcome under one policy. Group
// names the rest of the grid point: results that share it compete.
type PolicyResult struct {
	Policy      string
	Group       string
	GoodPerHour float64
	P99S        float64
	Moves       int64
	Errors      int
}

// RankPolicies scores each policy by its mean goodput normalized within
// every group (group winner = 1.0; a group whose best goodput is 0 adds
// nothing but still counts in the mean) and averages the other columns
// per result, summing errors. A policy with no results ranks with zeros.
// Rank order is score descending, then name ascending: a total order, so
// results in a fixed order rank identically at any worker count.
func RankPolicies(policies []string, results []PolicyResult) []PolicyRow {
	groupMax := make(map[string]float64)
	for _, r := range results {
		if r.GoodPerHour > groupMax[r.Group] {
			groupMax[r.Group] = r.GoodPerHour
		}
	}
	rows := make([]PolicyRow, 0, len(policies))
	for _, pol := range policies {
		row := PolicyRow{Policy: pol}
		var n int
		for _, r := range results {
			if r.Policy != pol {
				continue
			}
			n++
			if m := groupMax[r.Group]; m > 0 {
				row.Score += r.GoodPerHour / m
			}
			row.GoodPerHour += r.GoodPerHour
			row.P99S += r.P99S
			row.Moves += float64(r.Moves)
			row.Errors += int64(r.Errors)
		}
		if n > 0 {
			row.Score /= float64(n)
			row.GoodPerHour /= float64(n)
			row.P99S /= float64(n)
			row.Moves /= float64(n)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].Policy < rows[j].Policy
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}

// PolicyRow is one policy's aggregate tournament outcome.
type PolicyRow struct {
	Rank        int
	Policy      string
	Score       float64 // mean goodput normalized per scenario group (1 = group winner)
	GoodPerHour float64 // mean successful deploys/hour across the grid
	P99S        float64 // mean foreground deploy p99 latency
	Moves       float64 // mean migrations induced (DRS + rebalancer)
	Errors      int64   // failed deploys summed across the grid
}

// PolicyTable renders the tournament ranking, best first. Returns nil
// for an empty row set so callers can skip rendering cleanly.
func PolicyTable(title string, rows []PolicyRow) *Table {
	if len(rows) == 0 {
		return nil
	}
	t := NewTable(title,
		"rank", "policy", "score", "good/h", "p99 s", "moves", "errors")
	for _, r := range rows {
		t.AddRow(r.Rank, r.Policy, r.Score, r.GoodPerHour, r.P99S, r.Moves, r.Errors)
	}
	return t
}
