package workload

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/ops"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
	"cloudmcp/internal/trace"
)

// recordTrace runs CloudA briefly on a rig and returns its trace.
func recordTrace(t *testing.T, seed int64, horizon sim.Time) []trace.Record {
	t.Helper()
	r := newRig(t, seed, clouddir.DefaultConfig())
	rec := trace.NewRecorder()
	r.pl.AddTaskSink(rec.Sink)
	pr := CloudA()
	pr.LifetimeMeanS = 1200 // churn inside the window so destroys appear
	gen, err := NewGenerator(r.env, r.dir, pr, rng.Derive(seed, "wl"), horizon)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	r.env.Run(horizon)
	return rec.Records()
}

func TestReplayReproducesWorkload(t *testing.T) {
	recs := recordTrace(t, 3, 2*3600)
	if len(recs) == 0 {
		t.Fatal("empty recording")
	}

	// Replay onto a fresh rig with its own recorder.
	r2 := newRig(t, 99, clouddir.DefaultConfig())
	rec2 := trace.NewRecorder()
	r2.pl.AddTaskSink(rec2.Sink)
	rp, err := NewReplayer(r2.env, r2.dir, recs)
	if err != nil {
		t.Fatal(err)
	}
	rp.Start()
	r2.env.Run(3 * 3600)

	st := rp.Stats()
	if st.Issued == 0 {
		t.Fatal("nothing issued")
	}
	if st.ByKind[ops.KindDeploy.String()] == 0 {
		t.Fatal("no deploys replayed")
	}
	// Every recorded deploy must be replayable (deploys never need a
	// pre-existing target).
	var recordedDeploys int64
	for _, r := range recs {
		if r.Kind == ops.KindDeploy.String() {
			recordedDeploys++
		}
	}
	if st.ByKind[ops.KindDeploy.String()] != recordedDeploys {
		t.Fatalf("replayed %d deploys of %d recorded",
			st.ByKind[ops.KindDeploy.String()], recordedDeploys)
	}
	// The replayed run produced comparable activity: at least as many
	// operations as were dispatched (power-ons ride along with deploys).
	if int64(len(rec2.Records())) < st.Issued {
		t.Fatalf("replay produced %d records for %d issued ops", len(rec2.Records()), st.Issued)
	}
	if err := r2.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayDeterministic(t *testing.T) {
	recs := recordTrace(t, 5, 3600)
	run := func() (int64, int) {
		r := newRig(t, 7, clouddir.DefaultConfig())
		rec := trace.NewRecorder()
		r.pl.AddTaskSink(rec.Sink)
		rp, err := NewReplayer(r.env, r.dir, recs)
		if err != nil {
			t.Fatal(err)
		}
		rp.Start()
		r.env.Run(2 * 3600)
		return rp.Stats().Issued, len(rec.Records())
	}
	i1, n1 := run()
	i2, n2 := run()
	if i1 != i2 || n1 != n2 {
		t.Fatalf("replay nondeterministic: %d/%d vs %d/%d", i1, n1, i2, n2)
	}
}

func TestReplayCountsUnmappedAndSystemOps(t *testing.T) {
	recs := []trace.Record{
		{Kind: "powerOn", Org: "ghost", Submit: 1},    // no live VM → unmapped
		{Kind: "rebalance", Org: "system", Submit: 2}, // system op → skipped
		{Kind: "bogus", Submit: 3},                    // unknown kind → unmapped
		{Kind: "destroy", Org: "ghost", Submit: 4},    // nothing to destroy
	}
	r := newRig(t, 11, clouddir.DefaultConfig())
	rp, err := NewReplayer(r.env, r.dir, recs)
	if err != nil {
		t.Fatal(err)
	}
	rp.Start()
	r.env.Run(100)
	st := rp.Stats()
	if st.Issued != 0 {
		t.Fatalf("issued = %d", st.Issued)
	}
	if st.Unmapped != 3 {
		t.Fatalf("unmapped = %d, want 3", st.Unmapped)
	}
	if st.SystemOps != 1 {
		t.Fatalf("system ops = %d, want 1", st.SystemOps)
	}
}

func TestReplayRejectsEmptyTrace(t *testing.T) {
	r := newRig(t, 13, clouddir.DefaultConfig())
	if _, err := NewReplayer(r.env, r.dir, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestReplayOrdersBySubmit(t *testing.T) {
	// Deploy submitted later but listed first must still precede the
	// destroy that targets it.
	recs := []trace.Record{
		{Kind: "destroy", Org: "o", Submit: 500},
		{Kind: "deploy", Org: "o", Template: 1, Submit: 1},
	}
	r := newRig(t, 17, clouddir.DefaultConfig())
	rp, err := NewReplayer(r.env, r.dir, recs)
	if err != nil {
		t.Fatal(err)
	}
	rp.Start()
	r.env.Run(2000)
	st := rp.Stats()
	if st.Issued != 2 || st.Unmapped != 0 {
		t.Fatalf("stats = %+v (deploy should have preceded destroy)", st)
	}
	if n := len(r.inv.VMs()); n != 0 {
		t.Fatalf("VMs left = %d", n)
	}
}

// TestReplayOrderMatchesStableSort checks that NewReplayer's index sort
// gives the order a stable sort of the records by submit time gives, on a
// recorded trace shuffled with many ties and on one already sorted.
func TestReplayOrderMatchesStableSort(t *testing.T) {
	recs := recordTrace(t, 3, 3600)
	shuffled := make([]trace.Record, len(recs))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(recs)) {
		shuffled[i] = recs[j]
		shuffled[i].Submit = float64(int(recs[j].Submit) / 60 * 60) // whole minutes: ties
	}
	r := newRig(t, 19, clouddir.DefaultConfig())
	for _, in := range [][]trace.Record{recs, shuffled} {
		want := slices.Clone(in)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Submit < want[j].Submit })
		rp, err := NewReplayer(r.env, r.dir, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rp.records, want) {
			t.Fatal("replay order differs from a stable sort by submit time")
		}
	}
}
