package core

import (
	"bytes"
	"strings"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/ops"
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
	    "database": {"flushS": 0.5},
	    "network": {"mbps": 2500}
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
	if cfg.Mgmt.Network == nil || cfg.Mgmt.Network.MBps != 2500 {
		t.Fatalf("network = %+v", cfg.Mgmt.Network)
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
	// Keys of the removed partitioned event kernel: a scenario written for
	// that schema must fail loudly, never run on silently without them.
	for _, src := range []string{`{"lanes": 4}`, `{"laneWorkers": 2}`} {
		if _, err := LoadConfig(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s: err = %v, want an unknown-field rejection", src, err)
		}
	}
}

func TestWriteDefaultConfigRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDefaultConfig(&buf, 7); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig(7)
	if cfg.Topology != def.Topology {
		t.Fatalf("topology drifted: %+v vs %+v", cfg.Topology, def.Topology)
	}
	if cfg.Mgmt.Threads != def.Mgmt.Threads || cfg.Mgmt.Granularity != def.Mgmt.Granularity {
		t.Fatalf("mgmt drifted")
	}
	if cfg.Director.Cells != def.Director.Cells ||
		cfg.Director.FastProvisioning != def.Director.FastProvisioning ||
		cfg.Director.RebalanceThreshold != def.Director.RebalanceThreshold {
		t.Fatalf("director drifted")
	}
	if cfg.Storage != def.Storage {
		t.Fatalf("storage drifted")
	}
}
