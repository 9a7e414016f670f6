package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cloudmcp/internal/rng"
	"cloudmcp/internal/sweep"
)

// Points are row-major, Dims[0] slowest: each point carries its level
// indices and labels, the Config its base and level overrides load (a
// later override wins), and a level's client count over the grid's.
func TestGridPointsRowMajor(t *testing.T) {
	g := Grid{
		Base: []string{"topology.hosts=8", "director.cells=2"},
		Dims: []Dim{
			Vary("plane.shards", 1, 2),
			{Name: "shape", Levels: []Level{
				{Label: "wide", Sets: []string{"topology.hosts=16", "director.cells=4"}},
				{Label: "busy", Clients: 9},
				{Label: "full", Sets: []string{"director.fastProvisioning=false"}},
			}},
		},
		Clients: 3,
	}
	points, err := g.Points(DefaultLoader(5))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		labels               string
		levels               []int
		shards, hosts, cells int
		fast                 bool
		clients              int
	}{
		{"1/wide", []int{0, 0}, 1, 16, 4, true, 3},
		{"1/busy", []int{0, 1}, 1, 8, 2, true, 9},
		{"1/full", []int{0, 2}, 1, 8, 2, false, 3},
		{"2/wide", []int{1, 0}, 2, 16, 4, true, 3},
		{"2/busy", []int{1, 1}, 2, 8, 2, true, 9},
		{"2/full", []int{1, 2}, 2, 8, 2, false, 3},
	}
	if len(points) != len(want) {
		t.Fatalf("%d points, want %d", len(points), len(want))
	}
	for i, w := range want {
		pt := points[i]
		c := pt.Config
		if strings.Join(pt.Labels, "/") != w.labels || !reflect.DeepEqual(pt.Levels, w.levels) ||
			c.Plane.Shards != w.shards || c.Topology.Hosts != w.hosts || c.Director.Cells != w.cells ||
			c.Director.FastProvisioning != w.fast || pt.Clients != w.clients || c.Seed != 5 {
			t.Errorf("point %d: labels %v levels %v shards %d hosts %d cells %d fast %v clients %d seed %d, want %+v",
				i, pt.Labels, pt.Levels, c.Plane.Shards, c.Topology.Hosts, c.Director.Cells,
				c.Director.FastProvisioning, pt.Clients, c.Seed, w)
		}
	}
}

// A value no cloud can be built from fails while the points load,
// before any simulates, with an error naming the point's path=value
// list: values the scenario decoder rejects, values Apply rejects, and
// values only New rejects.
func TestGridPointErrorsNameThePath(t *testing.T) {
	for _, c := range []struct{ path, values, want string }{
		{"topology.hosts", "8,0", "topology.hosts=0"},
		{"director.cells", "x", "director.cells=x"},
		{"plane.db", "nope", "plane.db=nope"},
		{"mgmt.dbConns", "0", "mgmt.dbConns=0"},
		{"topology.templateDiskGB", "-1", "topology.templateDiskGB=-1"},
		{"director.maxChainLen", "-1", "director.maxChainLen=-1"},
		{"director.fastProvisioning", "yes", "director.fastProvisioning=yes"},
		{"mgmt.granularity", "weird", "mgmt.granularity=weird"},
		{"director.placement", "weird", "director.placement=weird"},
		{"policy", "zzz", "policy=zzz"},
		{"topology.hostz", "4", "topology.hostz=4"},
	} {
		g := Grid{Base: []string{"topology.hosts=8"}, Dims: []Dim{Vary(c.path, strings.Split(c.values, ",")...)}, Clients: 1}
		_, err := g.Points(DefaultLoader(1))
		if err == nil || !strings.Contains(err.Error(), "grid point topology.hosts=8 "+c.want) {
			t.Errorf("%s=%s: err = %v, want an error naming %s after the base", c.path, c.values, err, c.want)
		}
	}
}

// Rows come back in grid order with the same results for any worker
// count, and PointSeeds gives each point the seed sweep derives for its
// index instead of the loaded one.
func TestGridRunIdenticalAcrossWorkerCounts(t *testing.T) {
	g := Grid{
		Base:    []string{"director.rebalanceThreshold=0"},
		Dims:    []Dim{Vary("topology.hosts", 8, 16), Vary("director.fastProvisioning", false, true)},
		Clients: 8, HorizonS: 150, WarmupS: 15,
	}
	run := func(g Grid, workers int) []GridRow {
		rows, err := g.Run(DefaultLoader(1), sweep.Options{MasterSeed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := run(g, 1), run(g, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("grid rows differ between 1 and 8 workers")
	}
	for i, r := range serial {
		if want := []int{i / 2, i % 2}; !reflect.DeepEqual(r.Levels, want) || r.Config.Seed != 1 {
			t.Fatalf("row %d: levels %v seed %d, want %v seed 1", i, r.Levels, r.Config.Seed, want)
		}
		if r.Result.Deploys == 0 {
			t.Fatalf("row %d deployed nothing; the test exercised nothing", i)
		}
	}
	g.PointSeeds = true
	seeded := run(g, 8)
	if !reflect.DeepEqual(seeded, run(g, 1)) {
		t.Fatal("point-seeded rows differ between 1 and 8 workers")
	}
	for i, r := range seeded {
		if want := rng.DeriveSeed(1, fmt.Sprintf("point:%d", i)); r.Config.Seed != want {
			t.Fatalf("row %d seed %d, want %d", i, r.Config.Seed, want)
		}
	}
}

// A tournament grid ranks by dimension 0; the other labels group the
// normalization.
func TestGridRankPoliciesGroupsByTheOtherLabels(t *testing.T) {
	g := Grid{Dims: []Dim{Vary("policy", "a", "b"), Vary("topology.hosts", 8, 16)}}
	row := func(pol, hosts string, good float64) GridRow {
		return GridRow{Labels: []string{pol, hosts}, Result: ClosedLoopResult{DeploysPerHour: good}}
	}
	// b wins the small group, a the large one by a wider margin.
	ranking := g.RankPolicies([]GridRow{row("a", "8", 50), row("a", "16", 400), row("b", "8", 100), row("b", "16", 100)})
	if len(ranking) != 2 || ranking[0].Policy != "a" || ranking[0].Score != 0.75 || ranking[1].Score != 0.625 {
		t.Fatalf("ranking = %+v", ranking)
	}
}
