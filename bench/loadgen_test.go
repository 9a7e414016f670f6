package main

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is a virtual clock the fake client advances by each
// request's service time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// fakeClient serves every request in svc; a task is pending on its first
// poll and succeeds on the second (or never, with stuck). It records the
// org and template of every instantiate.
type fakeClient struct {
	clk   *fakeClock
	svc   time.Duration
	stuck bool

	mu    sync.Mutex
	next  int64
	polls map[int64]int
	drawn [][2]int
}

func (f *fakeClient) instantiate(org, tpl int) (int64, error) {
	f.clk.advance(f.svc)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drawn = append(f.drawn, [2]int{org, tpl})
	f.next++
	return f.next, nil
}

func (f *fakeClient) poll(org int, task int64) (taskState, int64, error) {
	f.clk.advance(f.svc)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.polls == nil {
		f.polls = map[int64]int{}
	}
	f.polls[task]++
	if f.stuck || f.polls[task] < 2 {
		return taskPending, 0, nil
	}
	return taskSucceeded, 100 + task, nil
}

func (f *fakeClient) remove(org int, vapp int64) (int64, error) {
	f.clk.advance(f.svc)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	return f.next, nil
}

func (f *fakeClient) read(org int) error {
	f.clk.advance(f.svc)
	return nil
}

// An operation instantiates, reads the org (client 0), polls until the
// task succeeds, deletes, and polls the delete until it resolves; every
// request is timed and counted, and the op latency runs from the
// instantiate to the success.
func TestLoadOperationLifecycle(t *testing.T) {
	clk := &fakeClock{}
	st := runLoad(loadConfig{Clients: 1, Duration: time.Millisecond, Grace: time.Second, Orgs: 8, Templates: 2},
		&fakeClient{clk: clk, svc: time.Millisecond}, clk)
	// instantiate 0→1; read 1→2; poll 2→3 pending; poll 3→4 success;
	// delete 4→5; poll 5→6 pending; poll 6→7 resolved.
	if st.Instantiated != 1 || st.Deleted != 1 || st.DeleteResolved != 1 || st.Failed != 0 || st.Requests != 7 {
		t.Fatalf("stats %+v", st)
	}
	if !slices.Equal(st.OpMS, []float64{4}) || !slices.Equal(st.WriteMS, []float64{1, 1}) ||
		!slices.Equal(st.ReadMS, []float64{1}) || len(st.PollMS) != 4 {
		t.Errorf("op %v writes %v reads %v polls %v", st.OpMS, st.WriteMS, st.ReadMS, st.PollMS)
	}
	if st.WallS != 0.007 {
		t.Errorf("wall %v s, want 0.007", st.WallS)
	}
}

// A task that never resolves is cut off after the drain grace and counts
// as failed, so the run ends.
func TestLoadCutsOffUnresolvedOperations(t *testing.T) {
	clk := &fakeClock{}
	st := runLoad(loadConfig{Clients: 1, Duration: time.Millisecond, Grace: 10 * time.Millisecond, Orgs: 8, Templates: 2},
		&fakeClient{clk: clk, svc: time.Millisecond, stuck: true}, clk)
	if st.Failed != 1 || st.Deleted != 0 || st.DeleteResolved != 0 {
		t.Errorf("failed %d, deleted %d, deletes resolved %d; want 1, 0, 0", st.Failed, st.Deleted, st.DeleteResolved)
	}
}

// failingClient fails every instantiate.
type failingClient struct{ fakeClient }

func (f *failingClient) instantiate(org, tpl int) (int64, error) {
	f.clk.advance(f.svc)
	return 0, errors.New("refused")
}

// A failed request counts as failed and leaves its vApp undeleted, which
// check reports.
func TestLoadCountsFailedRequests(t *testing.T) {
	clk := &fakeClock{}
	st := runLoad(loadConfig{Clients: 1, Duration: 3 * time.Millisecond, Orgs: 8, Templates: 2},
		&failingClient{fakeClient{clk: clk, svc: time.Millisecond}}, clk)
	if st.Instantiated != 3 || st.Failed != 3 || st.Requests != 3 || st.Deleted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, failed, problems := check(wServe, 1, true, []rep{{Load: st}}); failed != 3 || len(problems) != 1 {
		t.Errorf("check: %d failed, problems %v", failed, problems)
	}
}

// The orgs and templates a client draws are a function of the seed.
func TestLoadDrawsFromSeed(t *testing.T) {
	draw := func(seed int64) [][2]int {
		clk := &fakeClock{}
		cl := &fakeClient{clk: clk, svc: time.Millisecond}
		runLoad(loadConfig{Seed: seed, Clients: 1, Duration: 100 * time.Millisecond, Orgs: 8, Templates: 6}, cl, clk)
		return cl.drawn
	}
	a, b := draw(7), draw(7)
	if len(a) < 10 || !slices.Equal(a, b) {
		t.Fatalf("seed 7 drew %v, then %v", a, b)
	}
	if slices.Equal(a, draw(8)) {
		t.Fatal("seeds 7 and 8 drew the same orgs and templates")
	}
}

// Every client's counts and latencies add up in the run's stats; only
// client 0 reads.
func TestLoadClientsAddUp(t *testing.T) {
	clk := &fakeClock{}
	st := runLoad(loadConfig{Clients: 2, Duration: 50 * time.Millisecond, Grace: time.Second, Orgs: 8, Templates: 2},
		&fakeClient{clk: clk, svc: time.Millisecond}, clk)
	reqs := int64(len(st.WriteMS) + len(st.PollMS) + len(st.ReadMS))
	if st.Failed != 0 || st.Requests != reqs || st.Instantiated == 0 || st.DeleteResolved != st.Instantiated {
		t.Fatalf("stats %+v", st)
	}
	if int64(len(st.ReadMS)) > st.Instantiated {
		t.Errorf("%d reads for %d operations, want at most one each", len(st.ReadMS), st.Instantiated)
	}
}
