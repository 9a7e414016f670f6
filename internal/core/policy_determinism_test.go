package core

import (
	"strings"
	"testing"
)

// e21Quick is E21 trimmed to three policies and fault rates 0 and 0.2
// under 8 clients.
var e21Quick = e21Loop{policies: []string{"default", "binpack", "adaptive-retry"}, faultRates: []float64{0, 0.2}, clients: 8}

func TestE21RankingIsTotalOrder(t *testing.T) {
	r, err := e21Quick.run(Params{Seed: 1, HorizonS: 120, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ranking) != 3 {
		t.Fatalf("ranking rows = %d, want 3", len(r.Ranking))
	}
	for i, row := range r.Ranking {
		if row.Rank != i+1 {
			t.Fatalf("rank %d at position %d", row.Rank, i)
		}
		if i > 0 {
			prev := r.Ranking[i-1]
			if row.Score > prev.Score ||
				(row.Score == prev.Score && row.Policy < prev.Policy) {
				t.Fatalf("ranking not ordered: %+v before %+v", prev, row)
			}
		}
	}
}

func TestPolicyConfigRejectsUnknownName(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Policy = "not-a-policy"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("New with bad policy: err = %v", err)
	}
}

// TestPolicyDefaultIsIdentity pins the tentpole's core contract in a
// fast in-process form (the full artifact diffs run in CI): a cloud
// built with Policy "default" produces byte-identical closed-loop
// results to one built with no policy at all, while a non-default set
// must be reachable (it may or may not change this tiny run).
func TestPolicyDefaultIsIdentity(t *testing.T) {
	run := func(pol string) ClosedLoopResult {
		cfg := DefaultConfig(1)
		cfg.Policy = pol
		cfg.Director.RebalanceThreshold = 0
		r, err := RunClosedLoop(cfg, 4, 300, 30)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, named := run(""), run("default")
	if base.Deploys != named.Deploys || base.DeploysPerHour != named.DeploysPerHour ||
		base.P99LatencyS != named.P99LatencyS || base.MeanLatencyS != named.MeanLatencyS {
		t.Fatalf("default policy is not the identity:\nunset: %+v\nnamed: %+v", base, named)
	}
}
