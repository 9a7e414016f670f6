package core

// Regression tests for the inventory ladder: the prepopulated inventory
// must never leak wall-clock or map-order nondeterminism into the
// simulated results. E19's worker-count determinism is a row of
// TestArtifactsIdenticalAcrossWorkerCounts.

import (
	"fmt"
	"testing"
)

func TestPrepopulateVMsDeterministicAndCounted(t *testing.T) {
	build := func() *Cloud {
		cfg := DefaultConfig(1)
		cfg.Topology = e19Topology(4000)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PrepopulateVMs(4000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	if got := len(a.Inventory().VMs()); got != 4000 {
		t.Fatalf("prepopulated VMs = %d, want 4000", got)
	}
	av, bv := a.Inventory().VMs(), b.Inventory().VMs()
	if len(av) != len(bv) {
		t.Fatalf("VM counts differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("VM order diverged at %d: %v vs %v", i, av[i], bv[i])
		}
	}
	if err := a.Inventory().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestE19TopologyScalesWithSize(t *testing.T) {
	small := e19Topology(1000)
	if small.Hosts != 32 || small.Datastores != 8 {
		t.Fatalf("small rung reshaped the default: %+v", small)
	}
	big := e19Topology(1000000)
	if big.Hosts != 7813 || big.Datastores != 200 {
		t.Fatalf("1e6 rung topology: hosts=%d datastores=%d, want 7813/200", big.Hosts, big.Datastores)
	}
	if big.DatastoreMBps != 4000 {
		t.Fatalf("data plane not de-bottlenecked: %v MB/s", big.DatastoreMBps)
	}
}

func TestPrevmNameMatchesSprintf(t *testing.T) {
	// Each case starts the builder two names early, so the in-place
	// increment carries into it, and runs it two names past.
	for _, i := range []int{0, 9, 10, 9_999_999, 10_000_000, 123_456_789} {
		from := max(i-2, 0)
		for k, got := range prevmNames(from, i-from+3) {
			if want := fmt.Sprintf("prevm%07d", from+k); got != want {
				t.Errorf("prevmNames(%d, ...)[%d] = %q, want %q", from, k, got, want)
			}
		}
	}
	// The names share one backing string: the allocations do not grow
	// with their number.
	if allocs := testing.AllocsPerRun(5, func() { prevmNames(0, 1000) }); allocs > 5 {
		t.Errorf("prevmNames(0, 1000) allocates %v times, want at most 5", allocs)
	}
}
