package core

// The registry's grids load the Configs the experiments used to build by
// hand. Each reference below is that typed construction, kept here so a
// grid edit that changes what any point simulates fails without running
// a simulation.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
)

// gridRef is one point's expected Config and closed-loop client count.
type gridRef struct {
	cfg     Config
	clients int
}

// refPaperEraManager is the open-loop sweeps' manager: paper-era
// threads and DB connections, shadow churn and rebalancing off.
func refPaperEraManager(cfg *Config) {
	cfg.Mgmt.Threads = 4
	cfg.Mgmt.DBConns = 2
	cfg.Director.MaxChainLen = 1 << 30
	cfg.Director.RebalanceThreshold = 0
}

// refLoadedManager is E14's and E16's manager: paper-era threads and DB
// connections, rebalancing off, the chain cap left at its default.
func refLoadedManager(cfg *Config) {
	cfg.Director.RebalanceThreshold = 0
	cfg.Mgmt.Threads = 4
	cfg.Mgmt.DBConns = 2
}

// ref is DefaultConfig(seed) after build, with the client count build
// returns.
func ref(build func(cfg *Config) int, seed int64) gridRef {
	cfg := DefaultConfig(seed)
	clients := build(&cfg)
	return gridRef{cfg, clients}
}

func TestRegistryGridsLoadTheParentConfigs(t *testing.T) {
	const seed = 7
	load := DefaultLoader(seed)
	type grid struct {
		name string
		g    Grid
		load Loader
		want []gridRef
	}
	var grids []grid
	add := func(name string, g Grid, load Loader, want []gridRef) {
		grids = append(grids, grid{name, g, load, want})
	}

	var want []gridRef
	for _, size := range e5.sizesGB {
		for _, fast := range []bool{false, true} {
			want = append(want, ref(func(cfg *Config) int {
				cfg.Topology.TemplateDiskGB = size
				cfg.Director.FastProvisioning = fast
				return 0
			}, seed))
		}
	}
	add("E5", e5.grid(), load, want)

	want = nil
	for _, n := range e6.clients {
		for _, fast := range []bool{false, true} {
			want = append(want, ref(func(cfg *Config) int {
				cfg.Director.FastProvisioning = fast
				cfg.Director.RebalanceThreshold = 0
				return n
			}, seed))
		}
	}
	add("E6", e6.grid(180), load, want)

	want = nil
	for range e7e9.rates {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = true
			refPaperEraManager(cfg)
			return 0
		}, seed))
	}
	add("E7 and E9", e7e9.grid(), load, want)

	want = nil
	for range e8.rates {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = true
			cfg.Director.MaxChainLen = 8
			cfg.Director.RebalanceThreshold = 0
			return 0
		}, seed), ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = false
			cfg.Director.Placement = clouddir.PlaceStickyOrg
			cfg.Director.RebalanceThreshold = 0.05
			cfg.Director.RebalanceCheckS = 600
			cfg.Director.RebalanceBatch = 8
			cfg.Topology.DatastoreGB = 2000
			return 0
		}, seed))
	}
	add("E8", e8.grid(), load, want)

	want = nil
	for _, cells := range e10.cells {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = true
			cfg.Director.RebalanceThreshold = 0
			cfg.Director.Cells = cells
			cfg.Director.CellThreads = 2
			cfg.Director.MaxChainLen = 1 << 30
			return 64
		}, seed))
	}
	add("E10", e10.grid(180), load, want)

	want = nil
	for _, g := range []mgmt.LockGranularity{mgmt.GranularityCoarse, mgmt.GranularityHost, mgmt.GranularityEntity} {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = true
			cfg.Director.RebalanceThreshold = 0
			cfg.Mgmt.Granularity = g
			return 64
		}, seed))
	}
	add("E11", e11.grid(180), load, want)

	want = nil
	for _, size := range e12.sizesGB {
		for _, linked := range []bool{false, false, true} {
			want = append(want, ref(func(cfg *Config) int {
				cfg.Topology.TemplateDiskGB = size
				cfg.Director.RebalanceThreshold = 0
				cfg.Director.FastProvisioning = linked
				return 0
			}, seed))
		}
	}
	add("E12", e12.grid(), load, want)

	want = nil
	for _, w := range e13.windowsS {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.FastProvisioning = true
			cfg.Director.RebalanceThreshold = 0
			cfg.Director.MaxChainLen = 1 << 30
			cfg.Mgmt.Database = &mgmtdb.Config{Conns: 4, WriteS: 0.01, FlushS: 0.25, GroupWindowS: w}
			return 64
		}, seed))
	}
	add("E13", e13.grid(180), load, want)

	want = nil
	for range e14.rates {
		want = append(want, ref(func(cfg *Config) int { refLoadedManager(cfg); return 0 }, seed))
	}
	add("E14", e14.grid(), load, want)

	want = nil
	for _, cells := range e15.cells {
		want = append(want, ref(func(cfg *Config) int {
			cfg.Director.Cells = cells
			cfg.Director.CellThreads = 2
			cfg.Director.RebalanceThreshold = 0
			return 0
		}, seed+1))
	}
	add("E15", e15.grid(), DefaultLoader(seed+1), want)

	want = nil
	for range e16.rates {
		want = append(want, ref(func(cfg *Config) int { refLoadedManager(cfg); return 0 }, seed))
	}
	add("E16", e16.grid(), load, want)

	// E17's storm leg: the E16 grid with a faults.rate base at every
	// fault rate, zero included, where the Preset is still attached.
	for _, rate := range e17.rates {
		fc := faults.Preset(rate)
		add("E17 storm", e17Storm.grid(fmt.Sprintf("faults.rate=%v", rate)), load,
			[]gridRef{ref(func(cfg *Config) int { refLoadedManager(cfg); cfg.Faults = &fc; return 0 }, seed)})
	}

	// E19 at every rung, the 1e5 one (782 hosts, 20 datastores) that
	// quick runs never reach included.
	want = nil
	for _, size := range e19.sizes {
		for _, shards := range e19.shards {
			for _, grouped := range []bool{false, true} {
				want = append(want, ref(func(cfg *Config) int {
					cfg.Topology = e19Topology(size)
					cfg.Director.FastProvisioning = true
					cfg.Director.RebalanceThreshold = 0
					cfg.Director.MaxChainLen = 1 << 20
					cfg.Plane.Shards = shards
					if grouped {
						db := mgmtdb.DefaultConfig()
						db.GroupRows = true
						cfg.Mgmt.Database = &db
					}
					return 64
				}, seed))
			}
		}
	}
	add("E19", e19.grid(180), load, want)

	for _, gr := range grids {
		points, err := gr.g.Points(gr.load)
		if err != nil {
			t.Fatalf("%s: %v", gr.name, err)
		}
		if len(points) != len(gr.want) {
			t.Fatalf("%s: %d points, want %d", gr.name, len(points), len(gr.want))
		}
		for i, pt := range points {
			w := gr.want[i]
			if !reflect.DeepEqual(pt.Config, w.cfg) || pt.Clients != w.clients {
				t.Errorf("%s point %d (%s): loaded %+v with %d clients, want %+v with %d",
					gr.name, i, strings.Join(pt.Labels, "/"), pt.Config, pt.Clients, w.cfg, w.clients)
			}
		}
	}
	if top := e19Topology(e19.sizes[len(e19.sizes)-1]); top.Hosts != 782 || top.Datastores != 20 {
		t.Fatalf("largest E19 rung: %d hosts, %d datastores, want 782/20", top.Hosts, top.Datastores)
	}
}
