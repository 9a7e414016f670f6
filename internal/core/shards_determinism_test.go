package core

// Regression tests for the sharded-plane determinism contract: E18's
// artifact must be byte-identical for any sweep worker count (each grid
// point builds its own cloud on streams derived from the master seed),
// and a multi-shard run must itself be reproducible run-to-run.

import (
	"strings"
	"testing"
)

// e18Quick runs E18 trimmed to one and two shards under 48 clients over
// a 120 s horizon.
func e18Quick(t *testing.T, workers int) *E18Result {
	t.Helper()
	quick := e18Loop{shards: []int{1, 2}, clients: 48}
	r, err := quick.run(E18Params{Seed: 1, HorizonS: 120, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func renderE18(t *testing.T, workers int) string {
	t.Helper()
	var sb strings.Builder
	if err := e18Quick(t, workers).Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE18ArtifactIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := renderE18(t, 1)
	parallel := renderE18(t, 8)
	if serial != parallel {
		t.Fatalf("E18 artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"E18: linked-clone provisioning vs management shards",
		"E18: full-clone provisioning vs management shards",
		"E18: cross-shard coordination under a migration storm (shared DB)",
	} {
		if !strings.Contains(serial, want) {
			t.Fatalf("artifact missing %q:\n%s", want, serial)
		}
	}
}

// A sharded cloud must produce cross-shard work in the storm leg and
// none at one shard — the coordinator only fires across a boundary.
func TestE18CrossShardAccounting(t *testing.T) {
	r := e18Quick(t, 0)
	one, two := r.Points[0], r.Points[1]
	if one.Shards != 1 || two.Shards != 2 {
		t.Fatalf("grid order: %d, %d", one.Shards, two.Shards)
	}
	if one.CrossOps != 0 || one.CoordS != 0 {
		t.Fatalf("1-shard plane coordinated: %+v", one)
	}
	if two.Migrations == 0 || two.CrossOps == 0 || two.CoordS <= 0 {
		t.Fatalf("2-shard storm saw no cross-shard work: %+v", two)
	}
	if two.CrossShare <= 0 || two.CrossShare >= 100 {
		t.Fatalf("cross share %.1f%% out of range", two.CrossShare)
	}
}
