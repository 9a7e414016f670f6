package ops

import (
	"fmt"
	"math"
	"testing"

	"cloudmcp/internal/rng"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds() {
		s := k.String()
		if s == "" {
			t.Fatalf("empty name for %d", int(k))
		}
		got, err := ParseKind(s)
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v err %v", k, got, err)
		}
	}
	for _, s := range []string{"nonsense", "", "op(0)", "op(99)"} {
		if _, err := ParseKind(s); err == nil {
			t.Fatalf("ParseKind(%q): expected parse error", s)
		}
	}
	for _, k := range []Kind{0, -1, KindResume + 1, 99} {
		if got, want := k.String(), fmt.Sprintf("op(%d)", int(k)); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if len(Kinds()) != len(kindNames)-1 {
		t.Fatalf("Kinds() lists %d kinds, kindNames names %d", len(Kinds()), len(kindNames)-1)
	}
}

func TestCloneModeString(t *testing.T) {
	if FullClone.String() != "full" || LinkedClone.String() != "linked" {
		t.Fatal("clone mode names")
	}
}

func TestDefaultModelValid(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesMissingKind(t *testing.T) {
	m := DefaultCostModel()
	delete(m.Stage, KindMigrate)
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for missing kind")
	}
}

func TestValidateCatchesNegative(t *testing.T) {
	m := DefaultCostModel()
	c := m.Stage[KindDeploy]
	c.CellS = -1
	m.Stage[KindDeploy] = c
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for negative cost")
	}
}

func TestSampleMeansTrackModel(t *testing.T) {
	m := DefaultCostModel()
	s := rng.New(7)
	const n = 20000
	var cell, host, db float64
	for i := 0; i < n; i++ {
		ss := m.Sample(s, KindDeploy)
		cell += ss.Cell
		host += ss.Host
		db += ss.DB
	}
	c := m.Stage[KindDeploy]
	if math.Abs(cell/n-c.CellS) > 0.05*c.CellS {
		t.Fatalf("cell mean %v, want ~%v", cell/n, c.CellS)
	}
	if math.Abs(host/n-c.HostS) > 0.05*c.HostS {
		t.Fatalf("host mean %v, want ~%v", host/n, c.HostS)
	}
	wantDB := float64(c.DBWrites) * m.DBWriteS
	if math.Abs(db/n-wantDB) > 0.05*wantDB {
		t.Fatalf("db mean %v, want ~%v", db/n, wantDB)
	}
}

func TestSamplePositive(t *testing.T) {
	m := DefaultCostModel()
	s := rng.New(8)
	for _, k := range Kinds() {
		for i := 0; i < 100; i++ {
			ss := m.Sample(s, k)
			if ss.Cell < 0 || ss.Mgmt < 0 || ss.DB < 0 || ss.Host < 0 {
				t.Fatalf("negative stage sample for %v: %+v", k, ss)
			}
		}
	}
}

func TestSampleUnknownKindPanics(t *testing.T) {
	m := DefaultCostModel()
	s := rng.New(9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Sample(s, Kind(99))
}

func TestSampleDeterministic(t *testing.T) {
	m := DefaultCostModel()
	a, b := rng.New(5), rng.New(5)
	for i := 0; i < 100; i++ {
		x, y := m.Sample(a, KindPowerOn), m.Sample(b, KindPowerOn)
		if x != y {
			t.Fatal("same-seed samples diverged")
		}
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{Queue: 1, Cell: 2, Mgmt: 3, DB: 4, Host: 5, Data: 6}
	if b.Total() != 21 {
		t.Fatalf("total = %v", b.Total())
	}
	sum := b.Add(b)
	if sum.Total() != 42 || sum.Host != 10 {
		t.Fatalf("add = %+v", sum)
	}
	half := b.Scale(0.5)
	if half.Total() != 10.5 || half.Data != 3 {
		t.Fatalf("scale = %+v", half)
	}
}

func TestMigrateMemCopy(t *testing.T) {
	m := DefaultCostModel()
	if got := m.MigrateMemCopyS(4096); math.Abs(got-4.096) > 1e-9 {
		t.Fatalf("mem copy = %v", got)
	}
	m.MigrateMemMBps = 0
	if m.MigrateMemCopyS(4096) != 0 {
		t.Fatal("zero-rate mem copy must be 0")
	}
}

func TestLinkedDeployControlCostExceedsDataCost(t *testing.T) {
	// The paper's central premise in model form: for a linked clone the
	// control-plane cost (cell+mgmt+db+host means) dwarfs the delta-disk
	// write (1 GB at 200 MB/s ≈ 5 s is comparable, but at the default
	// datastore the control cost must be at least a third of total so the
	// control plane is a meaningful bottleneck).
	m := DefaultCostModel()
	c := m.Stage[KindDeploy]
	control := c.CellS + c.MgmtS + float64(c.DBWrites)*m.DBWriteS + c.HostS
	if control < 5 {
		t.Fatalf("deploy control cost %v s too small for the linked-clone regime", control)
	}
}
