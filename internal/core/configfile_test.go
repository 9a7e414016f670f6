package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/drs"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/reconcile"
)

func TestLoadConfigDefaultsWhenEmpty(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig(9)
	if cfg.Topology != def.Topology || cfg.Mgmt.Threads != def.Mgmt.Threads {
		t.Fatalf("defaults not preserved: %+v", cfg)
	}
	if cfg.Seed != 9 {
		t.Fatalf("seed = %d", cfg.Seed)
	}
}

func TestLoadConfigOverrides(t *testing.T) {
	src := `{
	  "seed": 3,
	  "topology": {"hosts": 8, "datastoreMBps": 500},
	  "mgmt": {
	    "threads": 4, "granularity": "coarse",
	    "database": {"flushS": 0.5}
	  },
	  "director": {"cells": 6, "fastProvisioning": false, "placement": "sticky-org", "orgQuotaVMs": 10},
	  "storage": {"deltaWriteMB": 128},
	  "costs": {"deploy": {"mgmtS": 9.5, "dbWrites": 12}},
	  "costCV": 0,
	  "record": false
	}`
	cfg, err := LoadConfig(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Hosts != 8 || cfg.Topology.DatastoreMBps != 500 {
		t.Fatalf("topology = %+v", cfg.Topology)
	}
	if cfg.Topology.Datastores != DefaultTopology().Datastores {
		t.Fatal("unset topology field lost default")
	}
	if cfg.Mgmt.Threads != 4 || cfg.Mgmt.Granularity != mgmt.GranularityCoarse {
		t.Fatalf("mgmt = %+v", cfg.Mgmt)
	}
	if cfg.Mgmt.Database == nil || cfg.Mgmt.Database.FlushS != 0.5 {
		t.Fatalf("database = %+v", cfg.Mgmt.Database)
	}
	if cfg.Mgmt.Database.Conns == 0 {
		t.Fatal("database defaults not filled")
	}
	if cfg.Director.Cells != 6 || cfg.Director.FastProvisioning ||
		cfg.Director.Placement != clouddir.PlaceStickyOrg || cfg.Director.OrgQuotaVMs != 10 {
		t.Fatalf("director = %+v", cfg.Director)
	}
	if cfg.Storage.DeltaWriteMB != 128 || cfg.Storage.DeltaDiskGB != 1.0 {
		t.Fatalf("storage = %+v", cfg.Storage)
	}
	if cfg.Model == nil || cfg.Model.CV != 0 {
		t.Fatal("cost CV override lost")
	}
	c := cfg.Model.Stage[ops.KindDeploy]
	if c.MgmtS != 9.5 || c.DBWrites != 12 {
		t.Fatalf("cost override = %+v", c)
	}
	if c.CellS == 0 {
		t.Fatal("unset cost field lost default")
	}
	if cfg.Record {
		t.Fatal("record override lost")
	}
	// The config must actually build.
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigPolicy(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"seed": 2, "policy": "binpack"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != "binpack" {
		t.Fatalf("policy = %q", cfg.Policy)
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"sead": 1}`)); err == nil {
		t.Fatal("typo accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"policy": "zzz"}`)); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"mgmt": {"granularity": "weird"}}`)); err == nil {
		t.Fatal("bad granularity accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"director": {"placement": "x"}}`)); err == nil {
		t.Fatal("bad placement accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"costs": {"zzz": {}}}`)); err == nil {
		t.Fatal("bad op name accepted")
	}
	// Two bad op names: the error names the lexically first, whatever
	// order the map iterates in.
	if _, err := LoadConfig(strings.NewReader(`{"costs": {"zzz": {}, "yyy": {}}}`)); err == nil || !strings.Contains(err.Error(), `"yyy"`) {
		t.Fatalf("two bad op names: err = %v, want it to name \"yyy\"", err)
	}
	// Keys of the removed partitioned event kernel: a scenario written for
	// that schema must fail loudly, never run on silently without them.
	for _, src := range []string{`{"lanes": 4}`, `{"laneWorkers": 2}`} {
		if _, err := LoadConfig(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s: err = %v, want an unknown-field rejection", src, err)
		}
	}
}

func TestWriteDefaultConfigRoundTrips(t *testing.T) {
	for _, seed := range []int64{0, 1, 7} {
		var buf bytes.Buffer
		if err := WriteDefaultConfig(&buf, seed); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadConfig(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if def := DefaultConfig(seed); !reflect.DeepEqual(cfg, def) {
			t.Fatalf("seed %d: round trip = %+v, want %+v", seed, cfg, def)
		}
	}
}

// A field the scenario gives is used as written, zero included; the
// fields it omits, inside a present optional block too, keep their
// defaults.
func TestLoadConfigHonoursExplicitValues(t *testing.T) {
	load := func(src string) Config {
		t.Helper()
		cfg, err := LoadConfig(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return cfg
	}

	cfg := load(`{"mgmt": {"database": {"groupWindowS": 0}}}`)
	db := mgmtdb.DefaultConfig()
	db.GroupWindowS = 0
	if cfg.Mgmt.Database == nil || *cfg.Mgmt.Database != db {
		t.Fatalf("database = %+v, want %+v", cfg.Mgmt.Database, db)
	}
	if cfg := loadFile(t, filepath.Join("..", "..", "scenarios", "paper-era.json")); cfg.Mgmt.Database.GroupWindowS != 0 {
		t.Fatalf("paper-era groupWindowS = %g, want 0 as written", cfg.Mgmt.Database.GroupWindowS)
	}

	cfg = load(`{"drs": {"threshold": 0}}`)
	if d := drs.DefaultConfig(); cfg.DRS.Threshold != 0 || cfg.DRS.CheckS != d.CheckS || cfg.DRS.Batch != d.Batch {
		t.Fatalf("drs = %+v, want threshold 0 (off) over the defaults", cfg.DRS)
	}

	cfg = load(`{"reconcile": {"ratePerS": 0}}`)
	rc := reconcile.DefaultConfig()
	rc.Controllers = reconcile.ControllerNames()
	rc.RatePerS = 0
	if cfg.Reconcile == nil || !reflect.DeepEqual(*cfg.Reconcile, rc) {
		t.Fatalf("reconcile = %+v, want %+v", cfg.Reconcile, rc)
	}

	cfg = load(`{"faults": {"rate": 0.1, "retry": {"deadlineS": 0, "jitter": 0}}}`)
	retry := mgmt.DefaultRetryPolicy()
	retry.Deadline, retry.DeterministicJitter = 0, 0
	if cfg.Mgmt.Retry != retry {
		t.Fatalf("retry = %+v, want %+v", cfg.Mgmt.Retry, retry)
	}

	cfg = load(`{"director": {"fastProvisioning": false, "rebalanceThreshold": 0}, "record": false}`)
	if cfg.Director.FastProvisioning || cfg.Director.RebalanceThreshold != 0 || cfg.Record {
		t.Fatalf("explicit false/0 lost: director %+v, record %v", cfg.Director, cfg.Record)
	}
}

// A faults block without retry leaves Mgmt.Retry zero, so New applies
// the policy set's retry (fault-burst.json's adaptive-retry depends on
// it).
func TestLoadConfigFaultsWithoutRetryKeepsPolicyRetry(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"faults": {"rate": 0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mgmt.Retry != (mgmt.RetryPolicy{}) {
		t.Fatalf("retry = %+v, want zero", cfg.Mgmt.Retry)
	}
	if cfg := loadFile(t, filepath.Join("..", "..", "scenarios", "fault-burst.json")); cfg.Mgmt.Retry != (mgmt.RetryPolicy{}) {
		t.Fatalf("fault-burst retry = %+v, want zero", cfg.Mgmt.Retry)
	}
}

// Unknown fields fail inside optional blocks too, whose decoding starts
// from package defaults.
func TestLoadConfigRejectsUnknownFieldsInBlocks(t *testing.T) {
	for _, tc := range []struct{ src, field string }{
		{`{"drs": {"treshold": 0.1}}`, "treshold"},
		{`{"mgmt": {"database": {"conn": 4}}}`, "conn"},
		{`{"mgmt": {"network": {"gbps": 10}}}`, "network"},
		{`{"mgmt":{"network":{}}}`, "network"},
		{`{"faults":{"net":{}}}`, "net"},
		{`{"faults": {"retry": {"deadline": 5}}}`, "deadline"},
		{`{"reconcile": {"intervl": 60}}`, "intervl"},
		{`{"reconcile": {"backoff": {"base": 1}}}`, "base"},
	} {
		want := `unknown field "` + tc.field + `"`
		if _, err := LoadConfig(strings.NewReader(tc.src)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %s", tc.src, err, want)
		}
	}
}

// A scenario is one JSON document: anything after it but white space is
// an error, not silently ignored.
func TestLoadConfigRejectsTrailingData(t *testing.T) {
	for _, src := range []string{
		`{"topology":{"hosts":8}} {"topology":{"hosts":0}} junk`,
		`{"topology":{"hosts":8}} {"topology":{"hosts":0}}`,
		`{"seed":1} junk`,
		`{"seed":1}}`,
		`{"seed":1} null`,
	} {
		if cfg, err := LoadConfig(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted as hosts=%d, want a trailing-data error", src, cfg.Topology.Hosts)
		}
	}
	for _, src := range []string{`{"topology":{"hosts":8}}`, "{\"topology\":{\"hosts\":8}}\n", " \t{\"topology\":{\"hosts\":8}}\r\n\n "} {
		if cfg, err := LoadConfig(strings.NewReader(src)); err != nil || cfg.Topology.Hosts != 8 {
			t.Errorf("%q: hosts %d, err %v", src, cfg.Topology.Hosts, err)
		}
	}
}
