// Package policy collects the management plane's decision points —
// placement scoring, DRS move selection, HA failover targeting, retry
// shaping, and admission limits — behind small interfaces so competing
// implementations can be raced on the sweep engine (mcpsweep -policy,
// experiment E21) without touching the engines that consume them.
//
// Determinism contract: every policy decides from inventory state and
// its arguments only — no clocks, no randomness — so a policy swap
// changes *which* artifact a run produces, never whether the run is
// reproducible. The default set reproduces the previously hardcoded
// decisions bit-for-bit (pinned by the equivalence suites in drs, ha,
// clouddir, and workload).
package policy

import (
	"fmt"
	"sort"
	"strings"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
)

// PlacementPolicy scores hosts and datastores for initial placement.
// BestHost with group >= 0 restricts the search to that host group
// (the sharded plane's shard-affinity path); group < 0 means any host.
type PlacementPolicy interface {
	BestHost(inv *inventory.Inventory, memMB, group int) *inventory.Host
	BestDatastore(inv *inventory.Inventory, needGB float64) *inventory.Datastore
}

// MovePolicy picks which VM a DRS pass migrates from the hottest host
// hi to the coolest host lo (nil = nothing movable).
type MovePolicy interface {
	Pick(inv *inventory.Inventory, hi, lo *inventory.Host) *inventory.VM
}

// FailoverPolicy picks the surviving host an HA restart lands on
// (nil = no host fits).
type FailoverPolicy interface {
	PickTarget(inv *inventory.Inventory, vm *inventory.VM) *inventory.Host
}

// AdmissionPolicy sizes the plane's in-flight admission limit from the
// configured base and the deployment shape.
type AdmissionPolicy interface {
	MaxInFlight(base, hosts, shards int) int
}

// Set bundles one policy per axis. Retry is the fault-retry policy core
// hands mgmt when faults are enabled and the scenario gives no
// faults.retry block. Zero fields are invalid; build Sets with Default
// or Named.
type Set struct {
	Name      string
	Place     PlacementPolicy
	Move      MovePolicy
	Failover  FailoverPolicy
	Retry     mgmt.RetryPolicy
	Admission AdmissionPolicy
}

// Default returns the identity set: every axis reproduces the
// previously hardcoded behavior bit-for-bit.
func Default() Set {
	return Set{
		Name:      "default",
		Place:     DefaultPlacement(),
		Move:      DefaultMove(),
		Failover:  DefaultFailover(),
		Retry:     FixedRetry(),
		Admission: FixedAdmission(),
	}
}

// namedSets maps tournament names to constructors. Each named set is
// the default set with one axis (or one coherent pair) swapped, so a
// tournament isolates the axis under test.
var namedSets = map[string]func() Set{
	"default": Default,
	"binpack": func() Set {
		s := Default()
		s.Name, s.Place, s.Failover = "binpack", BinpackPlacement(), PackFailover()
		return s
	},
	"spread": func() Set {
		s := Default()
		s.Name, s.Place, s.Failover = "spread", SpreadPlacement(), SpreadFailover()
		return s
	},
	"band": func() Set {
		s := Default()
		s.Name, s.Move = "band", BandMove()
		return s
	},
	"small-moves": func() Set {
		s := Default()
		s.Name, s.Move = "small-moves", SmallestFitMove()
		return s
	},
	"eager-retry": func() Set {
		s := Default()
		s.Name, s.Retry = "eager-retry", EagerRetry()
		return s
	},
	"adaptive-retry": func() Set {
		s := Default()
		s.Name, s.Retry = "adaptive-retry", AdaptiveRetry()
		return s
	},
	"no-retry": func() Set {
		s := Default()
		s.Name, s.Retry = "no-retry", NoRetry()
		return s
	},
	"tight-admission": func() Set {
		s := Default()
		s.Name, s.Admission = "tight-admission", ConservativeAdmission()
		return s
	},
	"host-admission": func() Set {
		s := Default()
		s.Name, s.Admission = "host-admission", PerHostAdmission()
		return s
	},
}

// Named resolves a set by tournament name; "" means default.
func Named(name string) (Set, error) {
	if name == "" {
		return Default(), nil
	}
	mk, ok := namedSets[name]
	if !ok {
		return Set{}, fmt.Errorf("policy: unknown policy %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
	return mk(), nil
}

// Names lists the available set names, sorted.
func Names() []string {
	names := make([]string, 0, len(namedSets))
	for n := range namedSets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
