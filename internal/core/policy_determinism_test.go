package core

import (
	"strings"
	"testing"
)

// e21Quick runs E21 trimmed to three policies and fault rates 0 and 0.2
// under 8 clients, over a 120 s horizon.
func e21Quick(t *testing.T, workers int) *E21Result {
	t.Helper()
	quick := e21Loop{policies: []string{"default", "binpack", "adaptive-retry"}, faultRates: []float64{0, 0.2}, clients: 8}
	r, err := quick.run(E21Params{Seed: 1, HorizonS: 120, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func renderE21(t *testing.T, workers int) string {
	t.Helper()
	var sb strings.Builder
	if err := e21Quick(t, workers).Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE21ArtifactIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := renderE21(t, 1)
	parallel := renderE21(t, 8)
	if serial != parallel {
		t.Fatalf("E21 artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"E21: policy tournament over scenario x fault rate",
		"E21: failover storm per policy",
		"E21: ranking by mean normalized goodput",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
}

func TestE21RankingIsTotalOrder(t *testing.T) {
	r := e21Quick(t, 4)
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
