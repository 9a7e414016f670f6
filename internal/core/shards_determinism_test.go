package core

// Regression tests for the sharded plane: E18's storm leg must count
// cross-shard work only across a shard boundary. (E18's artifact across
// sweep worker counts is a row of
// TestArtifactsIdenticalAcrossWorkerCounts.)

import "testing"

// e18Quick is E18 trimmed to one and two shards under 48 clients.
var e18Quick = e18Loop{shards: []int{1, 2}, clients: 48}

// A sharded cloud must produce cross-shard work in the storm leg and
// none at one shard — the coordinator only fires across a boundary.
func TestE18CrossShardAccounting(t *testing.T) {
	r, err := e18Quick.run(Params{Seed: 1, HorizonS: 120})
	if err != nil {
		t.Fatal(err)
	}
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
