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
	// Two streams on one seed: the director and the manager each read
	// their own draws of the same sequence.
	cs, s := rng.New(7), rng.New(7)
	const n = 20000
	var cell, host, db float64
	for i := 0; i < n; i++ {
		cell += m.CellS(cs, KindDeploy)
		ss := m.Sample(s, KindDeploy)
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
			if cell := m.CellS(s, k); cell < 0 || ss.Mgmt < 0 || ss.DB < 0 || ss.Host < 0 {
				t.Fatalf("negative stage sample for %v: cell %v, %+v", k, cell, ss)
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

// wholeDraw is the draw both Sample and CellS split: every stage's
// log-normal, in order, the way one call drew them all before the
// director and the manager each skipped the stages they do not read.
func wholeDraw(m *CostModel, s *rng.Stream, k Kind) (cell, mgmt, db, host float64) {
	c := m.Stage[k]
	draw := func(mean float64) float64 {
		if mean <= 0 {
			return 0
		}
		return s.LogNormal(mean, m.CV)
	}
	cell = draw(c.CellS)
	mgmt = draw(c.MgmtS)
	db = draw(float64(c.DBWrites) * m.DBWriteS)
	host = draw(c.HostS)
	return
}

// TestSplitDrawsMatchTheWholeDraw pins the split bit for bit: Sample and
// CellS return exactly the whole draw's values for the stages they keep,
// and leave the stream where the whole draw leaves it, for every kind,
// with and without variation, and with stages of zero mean.
func TestSplitDrawsMatchTheWholeDraw(t *testing.T) {
	zeroMgmt := DefaultCostModel()
	c := zeroMgmt.Stage[KindPowerOn]
	c.MgmtS, c.HostS = 0, 0
	zeroMgmt.Stage[KindPowerOn] = c
	for _, cv := range []float64{0.25, 0} {
		for _, m := range []*CostModel{DefaultCostModel(), zeroMgmt} {
			m.CV = cv
			for _, k := range Kinds() {
				for seed := int64(1); seed <= 20; seed++ {
					ref, split := rng.New(seed), rng.New(seed)
					cell, mgmt, db, host := wholeDraw(m, ref, k)
					ss := m.Sample(split, k)
					if math.Float64bits(ss.Mgmt) != math.Float64bits(mgmt) ||
						math.Float64bits(ss.DB) != math.Float64bits(db) ||
						math.Float64bits(ss.Host) != math.Float64bits(host) {
						t.Fatalf("cv %v %v seed %d: Sample %+v, whole draw mgmt %v db %v host %v", cv, k, seed, ss, mgmt, db, host)
					}
					if a, b := ref.Float64(), split.Float64(); a != b {
						t.Fatalf("cv %v %v seed %d: after Sample the stream reads %v, after the whole draw %v", cv, k, seed, b, a)
					}
					ref, split = rng.New(seed), rng.New(seed)
					cell, _, _, _ = wholeDraw(m, ref, k)
					if got := m.CellS(split, k); math.Float64bits(got) != math.Float64bits(cell) {
						t.Fatalf("cv %v %v seed %d: CellS %v, whole draw %v", cv, k, seed, got, cell)
					}
					if a, b := ref.Float64(), split.Float64(); a != b {
						t.Fatalf("cv %v %v seed %d: after CellS the stream reads %v, after the whole draw %v", cv, k, seed, b, a)
					}
				}
			}
		}
	}
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
