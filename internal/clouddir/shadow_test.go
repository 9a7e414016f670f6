package clouddir

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/sim"
)

// baseResult is one baseFor call's outcome, with the time it returned.
type baseResult struct {
	end, waitS, copyS float64
	base              string
	err               bool
}

// runBaseFor starts one process per arrival time that calls baseFor for
// the fixture's template on ds, runs the simulation to the end and
// returns each call's outcome. check runs after every return.
func runBaseFor(f *fixture, ds *inventory.Datastore, arrive []sim.Time, baseFor func(p *sim.Proc) (*inventory.Template, float64, float64, error), check func()) []*baseResult {
	out := make([]*baseResult, len(arrive))
	for i, at := range arrive {
		f.env.Go("deploy", func(p *sim.Proc) {
			p.Sleep(at)
			b, waitS, copyS, err := baseFor(p)
			r := &baseResult{end: p.Now(), waitS: waitS, copyS: copyS, err: err != nil}
			if b != nil {
				r.base = b.Name
			}
			out[i] = r
			check()
		})
	}
	f.env.Run(sim.Forever)
	return out
}

// A deploy that waits through two shadow copies is charged the wait one
// piece per copy, summed in the order a waiting process re-checks: the
// single difference between its first park and its last wakeup rounds
// differently here.
func TestShadowWaitSumsOnePiecePerCopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxChainLen = 1
	f := newFixture(t, cfg)
	ds := f.ds[0] // the template's home: the chain starts on the template
	// a links the template's one clone; b copies shadow 1, during which
	// c and d park; c copies shadow 2 while d waits again, then d copies
	// shadow 3.
	const tD = 0.3
	arrive := []sim.Time{0, 0.1, 0.2, tD}
	out := runBaseFor(f, ds, arrive, func(p *sim.Proc) (*inventory.Template, float64, float64, error) {
		return f.dir.baseFor(p, f.tpl, ds)
	}, func() {})
	b, c, d := out[1], out[2], out[3]
	if b.copyS == 0 || c.copyS == 0 || d.copyS == 0 || f.dir.Stats().ShadowCopies != 3 {
		t.Fatalf("want b, c and d to copy a shadow each: %+v %+v %+v", *b, *c, *d)
	}
	t1, t2 := b.end, c.end // the ends of shadows 1 and 2
	want := 0.0
	want += t1 - tD
	want += t2 - t1
	if d.waitS != want {
		t.Fatalf("d waited %v, want the piecewise sum %v", d.waitS, want)
	}
	if whole := t2 - tD; whole == want {
		t.Fatalf("the fixture no longer tells the piecewise sum from t2-tD (%v); move the arrivals", whole)
	}
}

// herdChain is a chain as baseFor kept it before waiters re-checked in
// callbacks: a signal per shadow copy whose Fire woke every waiter.
type herdChain struct {
	base     inventory.ID
	count    int
	creating *sim.Signal
}

// baseForHerd is that baseFor, the reference the callback re-checks must
// reproduce: every waiter woke on each Fire and re-checked in its
// process.
func (d *Director) baseForHerd(chains map[chainKey]*herdChain, p *sim.Proc, tpl *inventory.Template, ds *inventory.Datastore) (*inventory.Template, float64, float64, error) {
	key := chainKey{tpl: tpl.ID, ds: ds.ID}
	cs, ok := chains[key]
	if !ok {
		cs = &herdChain{}
		if ds.ID == tpl.DatastoreID {
			cs.base = tpl.ID
		}
		chains[key] = cs
	}
	var waitS, copyS float64
	for cs.base == inventory.None || cs.count >= d.maxChain() {
		if cs.creating != nil {
			t0 := p.Now()
			cs.creating.Wait(p)
			waitS += p.Now() - t0
			continue
		}
		cs.creating = sim.NewSignal(d.env)
		d.nextShadow++
		name := fmt.Sprintf("shadow-%s-%d", tpl.Name, d.nextShadow)
		t0 := p.Now()
		shadow, err := d.plane.FullCopyTemplate(p, tpl, ds, name)
		copyS += p.Now() - t0
		sig := cs.creating
		cs.creating = nil
		if err != nil {
			sig.Fire()
			return nil, waitS, copyS, err
		}
		d.shadowCopies++
		cs.base, cs.count = shadow.ID, 0
		sig.Fire()
		break
	}
	cs.count++
	return d.plane.Inventory().Template(cs.base), waitS, copyS, nil
}

// shadowHerd runs the herd the fuzzer's bytes describe through baseFor,
// or through the reference with herd set, and returns every deploy's
// outcome. Byte 0 picks the chain limit (1–4), whether the chain starts
// on the template's home datastore, and room for 0–3 shadows there
// beyond which copies fail; each later byte is one deploy's arrival.
func shadowHerd(t *testing.T, data []byte, herd bool) []string {
	cfg := DefaultConfig()
	cfg.MaxChainLen = 1 + int(data[0]%4)
	f := newFixture(t, cfg)
	ds := f.ds[data[0]>>2&1]
	if room := int(data[0]>>3) % 5; room < 4 {
		f.inv.AddTemplate(ds, "filler", ds.FreeGB()-float64(room)*f.tpl.DiskGB-0.5, 1024, 1)
	}
	arrive := make([]sim.Time, 0, len(data)-1)
	for _, b := range data[1:min(len(data), 33)] {
		arrive = append(arrive, sim.Time(b%32)*7.3)
	}
	maxChain := f.dir.maxChain()
	check := func() {
		for _, cs := range f.dir.chains {
			if cs.count > maxChain {
				t.Errorf("chain holds %d clones, limit %d", cs.count, maxChain)
			}
		}
	}
	chains := map[chainKey]*herdChain{}
	out := runBaseFor(f, ds, arrive, func(p *sim.Proc) (*inventory.Template, float64, float64, error) {
		if herd {
			return f.dir.baseForHerd(chains, p, f.tpl, ds)
		}
		return f.dir.baseFor(p, f.tpl, ds)
	}, check)
	var log []string
	for i, r := range out {
		if r == nil {
			t.Errorf("deploy %d never resumed", i)
			continue
		}
		log = append(log, fmt.Sprintf("%d: %+v", i, *r))
	}
	for _, cs := range f.dir.chains {
		if cs.copying || cs.head != nil || cs.tail != nil {
			t.Errorf("drained with a chain still copying or holding waiters: %+v", *cs)
		}
	}
	f.env.Close()
	return log
}

// FuzzShadowWaiters checks that deploys waiting for a shadow copy resume
// exactly once, with nothing left parked at drain and no chain past its
// limit, and that their outcomes, wait sums and return times included,
// match the herd every Fire woke.
func FuzzShadowWaiters(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2})
	f.Add([]byte{4 | 2<<3, 0, 1, 1, 2, 3, 5, 8})
	f.Add([]byte{1 | 4 | 1<<3, 0, 0, 0, 0, 9, 9, 9, 20})
	f.Add([]byte{3 | 0<<3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		want, got := shadowHerd(t, data, true), shadowHerd(t, data, false)
		if !slices.Equal(got, want) {
			t.Fatalf("callback re-checks diverge from the woken herd:\ngot  %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	})
}

// A caller whose own member finishes last resumes behind the events
// already due at that instant, as it did when a worker's finish woke it:
// here the other caller's deploy, finishing at the same instant, ends
// before the first caller returns.
func TestDeployCallerResumesBehindDueEvents(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var log []string
	f.pl.AddTaskSink(func(task *mgmt.Task) {
		log = append(log, fmt.Sprintf("t=%v task %s", f.env.Now(), task.Req.Org))
	})
	for _, org := range []string{"orgA", "orgB"} {
		f.env.Go(org, func(p *sim.Proc) {
			if res := f.dir.DeployVApp(p, org, f.tpl, 1, false); res.Err != nil {
				t.Error(res.Err)
			}
			log = append(log, fmt.Sprintf("t=%v return %s", p.Now(), org))
		})
	}
	f.env.Run(sim.Forever)
	end := log[0][:strings.IndexByte(log[0], ' ')]
	want := []string{end + " task orgA", end + " task orgB", end + " return orgA", end + " return orgB"}
	if !slices.Equal(log, want) {
		t.Fatalf("got  %s\nwant %s", strings.Join(log, "\n     "), strings.Join(want, "\n     "))
	}
}
