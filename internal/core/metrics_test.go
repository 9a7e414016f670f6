package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cloudmcp/internal/metrics"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/trace"
	"cloudmcp/internal/workload"
)

// The metrics registry is pull-based and must be invisible to the
// simulation: the same seed must produce byte-identical trace artifacts
// with metrics on and off.
func TestMetricsDoNotPerturbProfileRun(t *testing.T) {
	run := func(withMetrics bool) []byte {
		cfg := DefaultConfig(3)
		cfg.Metrics = withMetrics
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunProfile(workload.CloudA(), 2*Hour); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, c.Records()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off := run(false)
	on := run(true)
	if !bytes.Equal(off, on) {
		t.Fatalf("trace differs with metrics enabled: %d vs %d bytes", len(off), len(on))
	}
}

func TestMetricsDoNotPerturbClosedLoop(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Director.FastProvisioning = true
	off, err := RunClosedLoop(cfg, 8, 600, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = true
	on, err := RunClosedLoop(cfg, 8, 600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics == nil {
		t.Fatal("cfg.Metrics did not produce a snapshot")
	}
	if off.Metrics != nil {
		t.Fatal("metrics-off run produced a snapshot")
	}
	snap := on.Metrics
	on.Metrics = nil
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("results differ with metrics enabled:\n on=%+v\noff=%+v", on, off)
	}

	// The snapshot must cover every layer the default stack builds.
	layers := map[string]bool{}
	for _, r := range snap.Resources {
		layers[r.Layer] = true
	}
	for _, want := range []string{"mgmt", "clouddir", "host", "storage"} {
		if !layers[want] {
			t.Fatalf("snapshot missing layer %q (have %v)", want, layers)
		}
	}
	if snap.AtS != 600 {
		t.Fatalf("snapshot at t=%v, want 600", snap.AtS)
	}
	if len(snap.TopByUtilization(3)) == 0 {
		t.Fatal("no resources to rank")
	}
}

// shardedSnapshot runs CloudA for an hour on a 4-shard plane with
// metrics on and returns the cloud and its snapshot.
func shardedSnapshot(t *testing.T, mode plane.DBMode, wal bool) (*Cloud, *metrics.Snapshot) {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.Plane.Shards = 4
	cfg.Plane.DB = mode
	if wal {
		db := mgmtdb.DefaultConfig()
		cfg.Mgmt.Database = &db
	}
	cfg.Metrics = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunProfile(workload.CloudA(), Hour); err != nil {
		t.Fatal(err)
	}
	return c, c.MetricsSnapshot()
}

// The database every shard shares by default reaches the registry once,
// under its unprefixed name.
func TestSharedDBInMetrics(t *testing.T) {
	_, snap := shardedSnapshot(t, plane.DBShared, false)
	for _, r := range snap.Resources {
		if r.Layer == "mgmt" && r.Resource == "mgmt.db" {
			if r.Grants == 0 {
				t.Fatalf("shared mgmt/mgmt.db registered with no grants: %+v", r)
			}
			return
		}
	}
	t.Fatal("snapshot of a 4-shard shared-DB plane has no mgmt/mgmt.db row")
}

// Per-shard WAL databases register under their shard's label, so the
// registry holds one commit series per database instead of one that the
// last-built database overwrote.
func TestPerShardWALMetricsLabelled(t *testing.T) {
	c, snap := shardedSnapshot(t, plane.DBPerShard, true)
	commits := map[string]float64{}
	for _, s := range snap.Scalars {
		if s.Layer == "mgmtdb" && s.Metric == "commits" {
			commits[s.Resource] = s.Value
		}
	}
	dbs := c.Plane().DBs()
	if len(commits) != len(dbs) || len(dbs) != 4 {
		t.Fatalf("commit series %v for %d databases, want 4 labelled sets", commits, len(dbs))
	}
	for i, db := range dbs {
		n := float64(db.WALStats().Commits)
		if got := commits[fmt.Sprintf("shard%d.wal", i)]; got != n || n == 0 {
			t.Fatalf("shard%d.wal commits = %v, database committed %v", i, got, n)
		}
	}
}
