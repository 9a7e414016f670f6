package policy

import (
	"strings"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
)

func buildInv(t *testing.T, hostMemMB ...int) (*inventory.Inventory, []*inventory.Host, *inventory.Datastore) {
	t.Helper()
	inv := inventory.New()
	dc := inv.AddDatacenter("dc")
	cl := inv.AddCluster(dc, "cl")
	var hosts []*inventory.Host
	for _, mem := range hostMemMB {
		hosts = append(hosts, inv.AddHost(cl, "h", 40000, mem))
	}
	ds := inv.AddDatastore(dc, "d", 1000, 100)
	return inv, hosts, ds
}

func addVM(t *testing.T, inv *inventory.Inventory, h *inventory.Host, ds *inventory.Datastore, memMB int) *inventory.VM {
	t.Helper()
	vm, err := inv.AddVM("vm", h, ds, 1, memMB, 1)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestNamedResolvesEverySet(t *testing.T) {
	for _, name := range Names() {
		s, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("Named(%q).Name = %q", name, s.Name)
		}
		if s.Place == nil || s.Move == nil || s.Failover == nil || s.Admission == nil ||
			s.Retry.MaxAttempts < 1 {
			t.Fatalf("Named(%q) has a zero axis: %+v", name, s)
		}
	}
	if s, err := Named(""); err != nil || s.Name != "default" {
		t.Fatalf(`Named("") = %+v, %v; want the default set`, s, err)
	}
	if _, err := Named("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("Named(nope) error = %v", err)
	}
}

func TestDefaultRetryMirrorsMgmtDefault(t *testing.T) {
	// The identity contract: the default set retries exactly as mgmt
	// does without a policy set.
	if got, want := Default().Retry, mgmt.DefaultRetryPolicy(); got != want {
		t.Fatalf("Default().Retry = %+v, want %+v", got, want)
	}
}

func TestPlacementPoliciesDiverge(t *testing.T) {
	inv, hosts, ds := buildInv(t, 65536, 65536, 65536)
	addVM(t, inv, hosts[1], ds, 4096) // h1 least free, still fits
	addVM(t, inv, hosts[2], ds, 2048)
	// most-free picks the untouched h0; binpack the fullest fitting h1;
	// spread the fewest-VMs h0 (0 VMs, ties broken by free memory).
	if h := DefaultPlacement().BestHost(inv, 1024, -1); h != hosts[0] {
		t.Fatalf("most-free = %v, want h0", h)
	}
	if h := BinpackPlacement().BestHost(inv, 1024, -1); h != hosts[1] {
		t.Fatalf("binpack = %v, want h1", h)
	}
	if h := SpreadPlacement().BestHost(inv, 1024, -1); h != hosts[0] {
		t.Fatalf("spread = %v, want h0", h)
	}
	// A memory ask only the empty host fits forces agreement.
	if h := BinpackPlacement().BestHost(inv, 65536, -1); h != hosts[0] {
		t.Fatalf("binpack(65536) = %v, want h0", h)
	}
	// Group filtering: restrict to a group that holds only h1.
	inv.SetHostGroup(hosts[1].ID, 7)
	if h := BinpackPlacement().BestHost(inv, 1024, 7); h != hosts[1] {
		t.Fatalf("binpack group 7 = %v, want h1", h)
	}
	if h := SpreadPlacement().BestHost(inv, 1024, 3); h != nil {
		t.Fatalf("spread empty group = %v, want nil", h)
	}
}

func TestMovePoliciesDiverge(t *testing.T) {
	inv, hosts, ds := buildInv(t, 65536, 65536)
	hi, lo := hosts[0], hosts[1]
	small := addVM(t, inv, hi, ds, 2048)
	big := addVM(t, inv, hi, ds, 8192)
	addVM(t, inv, hi, ds, 4096)
	if vm := DefaultMove().Pick(inv, hi, lo); vm != big {
		t.Fatalf("biggest-fit = %v, want the 8 GB VM", vm)
	}
	if vm := SmallestFitMove().Pick(inv, hi, lo); vm != small {
		t.Fatalf("smallest-fit = %v, want the 2 GB VM", vm)
	}
	// Band: hi util = 14336/65536, lo = 0; midpoint ≈ 10.9% → the 8 GB
	// move lands lo at 12.5%, closer than 4 GB (6.3%) or 2 GB (3.1%).
	if vm := BandMove().Pick(inv, hi, lo); vm != big {
		t.Fatalf("band = %v, want the 8 GB VM", vm)
	}
	// Nothing admissible when lo is hotter than hi.
	empty, loaded := hosts[1], hosts[0]
	if vm := DefaultMove().Pick(inv, empty, loaded); vm != nil {
		t.Fatalf("move off empty host = %v, want nil", vm)
	}
}

func TestFailoverPoliciesDiverge(t *testing.T) {
	inv, hosts, ds := buildInv(t, 65536, 65536, 65536)
	vm := addVM(t, inv, hosts[0], ds, 2048)
	addVM(t, inv, hosts[1], ds, 4096) // h1 fullest fitting survivor
	if h := DefaultFailover().PickTarget(inv, vm); h != hosts[2] {
		t.Fatalf("most-free = %v, want the empty h2", h)
	}
	if h := PackFailover().PickTarget(inv, vm); h != hosts[1] {
		t.Fatalf("pack = %v, want the loaded h1", h)
	}
	if h := SpreadFailover().PickTarget(inv, vm); h != hosts[2] {
		t.Fatalf("spread = %v, want the empty h2", h)
	}
	// All policies honor the CPU reservation: power everything on and
	// exhaust h1's CPU so only h2 fits a powered-on restart.
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionPoliciesDiverge(t *testing.T) {
	if got := FixedAdmission().MaxInFlight(96, 32, 1); got != 96 {
		t.Fatalf("fixed = %d", got)
	}
	if got := ConservativeAdmission().MaxInFlight(96, 32, 1); got != 48 {
		t.Fatalf("conservative = %d", got)
	}
	if got := ConservativeAdmission().MaxInFlight(1, 32, 1); got != 1 {
		t.Fatalf("conservative floor = %d", got)
	}
	if got := PerHostAdmission().MaxInFlight(96, 32, 1); got != 64 {
		t.Fatalf("per-host = %d", got)
	}
	if got := PerHostAdmission().MaxInFlight(96, 32, 8); got != 8 {
		t.Fatalf("per-host sharded floor = %d", got)
	}
	if got := PerHostAdmission().MaxInFlight(96, 1024, 2); got != 1024 {
		t.Fatalf("per-host big fleet = %d", got)
	}
}
