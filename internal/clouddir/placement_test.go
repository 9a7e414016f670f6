package clouddir

import (
	"fmt"
	"strings"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/plane"
	"cloudmcp/internal/policy"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/testfix"
)

// placementFixture builds a director over a plane of the given shard
// count on a custom installation shape, for tests that need more
// datastores, hosts or shards than newFixture's canonical one-shard 4×2.
func placementFixture(t *testing.T, opts testfix.Options, shards int, cfg Config) *fixture {
	t.Helper()
	fx := testfix.New(opts)
	pcfg := plane.DefaultConfig()
	pcfg.Shards = shards
	pl, err := plane.New(fx.Env, fx.Inv, fx.Pool, fx.Model, 1, mgmt.DefaultConfig(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := New(fx.Env, pl, fx.Model, rng.Derive(1, "cell"), policy.DefaultPlacement(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{env: fx.Env, inv: fx.Inv, pl: pl, dir: dir, tpl: fx.Tpl, ds: fx.DS}
}

func TestPlaceNearBaseDeterministicTieBreak(t *testing.T) {
	// Four datastores with identical free space all hold a base for the
	// template. The winner must be the template's home datastore, and
	// with home out of the running, the lowest-ID shadow — regardless of
	// base registration order. Before the candidate list existed the
	// winner followed chains-map iteration order, which Go randomizes.
	f := placementFixture(t, testfix.Options{Hosts: 2, Datastores: 4}, 1, DefaultConfig())
	home := f.inv.Datastore(f.tpl.DatastoreID)
	// Equalize free space: home carries the 20 GB template base disk.
	for _, ds := range f.ds {
		if ds.ID != home.ID {
			f.inv.AddDatastoreUsed(ds, home.UsedGB-ds.UsedGB)
		}
	}
	// Register shadows out of ID order to exercise the sorted insert.
	f.dir.registerBase(f.tpl.ID, f.ds[3].ID)
	f.dir.registerBase(f.tpl.ID, f.ds[1].ID)
	f.dir.registerBase(f.tpl.ID, f.ds[2].ID)
	f.dir.registerBase(f.tpl.ID, home.ID)

	if got := f.dir.placeNearBase(f.tpl, 1); got != home {
		t.Fatalf("equal-free tie went to %v, want home %v", got.ID, home.ID)
	}
	// Take home out: fill it so 1 GB no longer fits.
	f.inv.AddDatastoreUsed(home, home.CapacityGB-0.5-home.UsedGB)
	want := f.ds[1]
	if f.ds[1] == home {
		want = f.ds[2]
	}
	if got := f.dir.placeNearBase(f.tpl, 1); got != want {
		t.Fatalf("tie among shadows went to %v, want lowest ID %v", got.ID, want.ID)
	}
}

func TestRegisterBaseKeepsSortedUniqueList(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	tpl := f.tpl.ID
	ids := []inventory.ID{9, 3, 7, 3, 9, 1}
	for _, id := range ids {
		f.dir.registerBase(tpl, id)
	}
	got := f.dir.baseDS[tpl]
	want := []inventory.ID{1, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("baseDS = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("baseDS = %v, want %v", got, want)
		}
	}
}

// TestStickyOrgGoldenMapping pins the org→datastore assignment of the
// sticky-org policy: FNV-1a(org) mod datastore count, computed in
// uint32. These indices are part of the reproducibility contract — the
// closed-loop harness spreads its workers over org0..org7 — so a hash
// or modulo change shows up here before it silently shifts every
// sticky-placement artifact.
// Each placement name round-trips through the text form scenario files
// use, and an unknown name is rejected.
func TestPlacementPolicyText(t *testing.T) {
	for _, p := range []PlacementPolicy{PlaceMostFree, PlaceStickyOrg} {
		text, err := p.MarshalText()
		if err != nil || string(text) != p.String() {
			t.Fatalf("MarshalText(%v) = %q, %v", p, text, err)
		}
		var back PlacementPolicy = -1
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	var p PlacementPolicy
	if err := p.UnmarshalText([]byte("x")); err == nil || !strings.Contains(err.Error(), `unknown placement "x"`) {
		t.Fatalf("UnmarshalText(x) err = %v", err)
	}
}

func TestStickyOrgGoldenMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlaceStickyOrg
	f := placementFixture(t, testfix.Options{Hosts: 2, Datastores: 8}, 1, cfg)
	golden := map[string]int{
		"org0": 3, "org1": 0, "org2": 1, "org3": 6,
		"org4": 7, "org5": 4, "org6": 5, "org7": 2,
	}
	ids := f.inv.Datastores()
	for org, idx := range golden {
		ds := f.dir.stickyDatastore(org)
		if ds == nil || ds.ID != ids[idx] {
			t.Fatalf("stickyDatastore(%q) = %v, want datastore index %d (%v)", org, ds, idx, ids[idx])
		}
		// Cached path must agree with the first computation.
		if again := f.dir.stickyDatastore(org); again != ds {
			t.Fatalf("stickyDatastore(%q) cache returned %v, want %v", org, again, ds)
		}
	}
}

// TestStickyOrgHighHashStaysInRange covers the 32-bit overflow the old
// expression had: for orgs whose FNV-1a hash exceeds 2^31 (e.g. "orgA",
// hash 3676370376), int(h) is negative on 32-bit platforms and
// ids[int(h)%len(ids)] panicked. The uint32 modulo cannot go negative.
func TestStickyOrgHighHashStaysInRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlaceStickyOrg
	f := placementFixture(t, testfix.Options{Hosts: 2, Datastores: 8}, 1, cfg)
	const h = uint32(3676370376) // FNV-1a("orgA"), > 2^31
	if h <= 1<<31 {
		t.Fatal("test premise broken: hash fits in int32")
	}
	if got := rng.NewHash32().String("orgA").Sum(); got != h {
		t.Fatalf("FNV-1a(orgA) = %d, want %d", got, h)
	}
	ds := f.dir.stickyDatastore("orgA")
	if ds == nil {
		t.Fatal("stickyDatastore(orgA) = nil")
	}
	if want := f.inv.Datastores()[h%8]; ds.ID != want {
		t.Fatalf("stickyDatastore(orgA) = %v, want %v", ds.ID, want)
	}
}

// TestPlacementEquivalenceFuzz drives randomized inventory churn and
// checks, after every mutation, that the indexed placement paths return
// exactly the host/datastore the retained linear reference scans pick —
// the standing invariant that made swapping the scan for the index a
// byte-identical change. It runs on one shard and on three, where
// placeHost's shard-affine branch answers from the placement groups
// plane.New mirrors from its partition and the reference asks
// Plane.ShardOf, with the preferred shard drawn at every step.
func TestPlacementEquivalenceFuzz(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { placementEquivalence(t, shards) })
	}
}

func placementEquivalence(t *testing.T, shards int) {
	f := placementFixture(t, testfix.Options{Hosts: 12, Datastores: 6, DatastoreGB: 500}, shards, DefaultConfig())
	inv := f.inv
	hosts := make([]*inventory.Host, 0, 12)
	for _, id := range inv.Hosts() {
		hosts = append(hosts, inv.Host(id))
	}
	dss := f.ds
	state := uint64(0xda3e39cb94b95bdb)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	var vms []*inventory.VM
	for step := 0; step < 3000; step++ {
		switch next(7) {
		case 0, 1:
			h, d := hosts[next(len(hosts))], dss[next(len(dss))]
			if vm, err := inv.AddVM("vm", h, d, 1, 1024*(1+next(8)), float64(1+next(10))); err == nil {
				vms = append(vms, vm)
			}
		case 2:
			if len(vms) > 0 {
				i := next(len(vms))
				if inv.RemoveVM(vms[i]) == nil {
					vms = append(vms[:i], vms[i+1:]...)
				}
			}
		case 3:
			h := hosts[next(len(hosts))]
			inv.SetHostMaintenance(h, !h.Maintenance)
		case 4:
			h := hosts[next(len(hosts))]
			inv.SetHostFailed(h, !h.Failed)
		case 5:
			d := dss[next(len(dss))]
			inv.Reserve(d.ID, float64(1+next(30)))
		case 6:
			d := dss[next(len(dss))]
			if r := d.FreeGB() - inv.EffectiveFreeGB(d); r > 0 {
				inv.Reserve(d.ID, -r)
			}
		}
		memMB, pref := 1024*(1+next(10)), next(shards)
		if got, want := f.dir.placeHost(memMB, pref), f.dir.placeHostLinear(memMB, pref); got != want {
			t.Fatalf("step %d: placeHost(%d, shard %d) = %v, linear = %v", step, memMB, pref, got, want)
		}
		needGB := float64(1 + next(30))
		if got, want := f.dir.placeDatastore(needGB, "org0"), f.dir.placeDatastoreLinear(needGB); got != want {
			t.Fatalf("step %d: placeDatastore(%v) = %v, linear = %v", step, needGB, got, want)
		}
		if step%250 == 0 {
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// placeHostLinear is the retained O(hosts) reference implementation of
// placeHost. The placement-equivalence suite fuzz-compares it against the
// indexed path; production code never calls it.
func (d *Director) placeHostLinear(memMB, prefShard int) *inventory.Host {
	inv := d.plane.Inventory()
	affine := d.plane.ShardCount() > 1
	var best, bestPref *inventory.Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
		if affine && d.plane.ShardOf(id) == prefShard &&
			(bestPref == nil || h.FreeMemMB() > bestPref.FreeMemMB()) {
			bestPref = h
		}
	}
	if bestPref != nil {
		return bestPref
	}
	return best
}

// placeDatastoreLinear is the retained O(datastores) reference
// implementation of placeDatastore's most-free fallback, for the
// placement-equivalence suite.
func (d *Director) placeDatastoreLinear(needGB float64) *inventory.Datastore {
	inv := d.plane.Inventory()
	var best *inventory.Datastore
	for _, id := range inv.Datastores() {
		ds := inv.Datastore(id)
		if d.effectiveFree(ds) < needGB {
			continue
		}
		if best == nil || d.effectiveFree(ds) > d.effectiveFree(best) {
			best = ds
		}
	}
	return best
}

func TestLinkedClonesSkipDatastoreTooFullForShadow(t *testing.T) {
	// Retired shadows are never reclaimed, so a sequential deploy→delete
	// loop fills the template's home datastore with them. Once home
	// cannot hold a new shadow beside the delta, its chain must stop
	// taking clones and placement must move to a datastore with room.
	// Placing by the delta alone lets the shadow copy take the space the
	// deploy reserved, and the deploy fails with three datastores empty.
	cfg := DefaultConfig()
	cfg.MaxChainLen = 2
	f := placementFixture(t, testfix.Options{Datastores: 4, DatastoreGB: 200}, 1, cfg)
	const cycles = 60 // home holds 18 clones' worth of shadows
	f.env.Go("u", func(p *sim.Proc) {
		for i := 0; i < cycles; i++ {
			res := f.dir.DeployVApp(p, "orgA", f.tpl, 1, false)
			if res.Err != nil {
				t.Errorf("deploy %d: %v", i+1, res.Err)
				return
			}
			f.dir.DeleteVApp(p, res.VApp, "orgA")
		}
	})
	f.env.Run(sim.Forever)
	if got := f.dir.Stats().VAppsDeployed; got != cycles {
		t.Fatalf("deployed %d vApps, want %d", got, cycles)
	}
	if err := f.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
