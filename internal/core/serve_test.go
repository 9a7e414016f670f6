package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// serveCloud builds a small cloud plus a free-running paced driver and
// façade, ready for submission from the test goroutine or from model
// code at fixed virtual times.
func serveCloud(t *testing.T, seed int64, quantum sim.Time) (*Cloud, *sim.Paced, *Frontend) {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Metrics = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.NewPaced(c.Env(), sim.PacedConfig{Ratio: 0, QuantumS: quantum})
	return c, drv, NewFrontend(c, drv, FrontendConfig{})
}

// waitTask polls a handle until it is terminal, failing the test if it
// never resolves.
func waitTask(t *testing.T, f *Frontend, id int64) TaskInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ti, ok := f.Task(id)
		if !ok {
			t.Fatalf("task %d vanished", id)
		}
		if ti.State.Terminal() {
			return ti
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("task %d never resolved", id)
	return TaskInfo{}
}

// TestFrontendTaskLifecycle drives a vApp through instantiate, power
// off, and delete over a live (goroutine-driven) paced simulation and
// checks every handle resolves with the right shape.
func TestFrontendTaskLifecycle(t *testing.T) {
	_, drv, f := serveCloud(t, 1, 0.5)
	done := make(chan sim.Time, 1)
	go func() { done <- drv.Run(sim.Forever) }()
	defer func() {
		drv.Stop()
		<-done
	}()

	id, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: 2, PowerOn: true})
	if err != nil {
		t.Fatal(err)
	}
	ti := waitTask(t, f, id)
	if ti.State != TaskSuccess {
		t.Fatalf("instantiate state %s (%s)", ti.State, ti.Error)
	}
	if ti.VApp == inventory.None || ti.VAppName == "" {
		t.Fatalf("instantiate did not record a vApp: %+v", ti)
	}
	if ti.MgmtTasks != 4 { // 2 deploys + 2 power-ons
		t.Fatalf("instantiate issued %d mgmt tasks, want 4", ti.MgmtTasks)
	}
	if ti.EndV <= ti.StartV {
		t.Fatalf("no virtual time elapsed: %+v", ti)
	}
	if ti.QueueWaitS < 0 || ti.Latency() <= 0 {
		t.Fatalf("bad latency accounting: %+v", ti)
	}

	view, ok := f.OrgView("org0")
	if !ok {
		t.Fatal("OrgView failed on a running driver")
	}
	if len(view.VApps) != 1 || view.VApps[0].VMs != 2 || view.VApps[0].PoweredOn != 2 {
		t.Fatalf("org view after instantiate: %+v", view)
	}
	if view.LiveVMs != 2 {
		t.Fatalf("live VMs = %d, want 2", view.LiveVMs)
	}

	id2, err := f.SubmitOp(OpRequest{Kind: OpPowerOff, Org: "org0", VApp: ti.VApp})
	if err != nil {
		t.Fatal(err)
	}
	if ti2 := waitTask(t, f, id2); ti2.State != TaskSuccess || ti2.MgmtTasks != 2 {
		t.Fatalf("power off: %+v", ti2)
	}
	if va, ok := f.VApp("org0", ti.VApp); !ok || va.PoweredOn != 0 {
		t.Fatalf("vApp view after power off: %+v ok=%v", va, ok)
	}

	// Cross-tenant access is refused inside the simulation.
	id3, err := f.SubmitOp(OpRequest{Kind: OpDelete, Org: "org1", VApp: ti.VApp})
	if err != nil {
		t.Fatal(err)
	}
	if ti3 := waitTask(t, f, id3); ti3.State != TaskError || !strings.Contains(ti3.Error, "not owned") {
		t.Fatalf("cross-tenant delete: %+v", ti3)
	}

	id4, err := f.SubmitOp(OpRequest{Kind: OpDelete, Org: "org0", VApp: ti.VApp})
	if err != nil {
		t.Fatal(err)
	}
	if ti4 := waitTask(t, f, id4); ti4.State != TaskSuccess {
		t.Fatalf("delete: %+v", ti4)
	}
	if view, _ := f.OrgView("org0"); len(view.VApps) != 0 {
		t.Fatalf("org view after delete: %+v", view)
	}

	// Ops on vanished targets resolve as task errors, not panics.
	id5, err := f.SubmitOp(OpRequest{Kind: OpPowerOn, Org: "org0", VApp: ti.VApp})
	if err != nil {
		t.Fatal(err)
	}
	if ti5 := waitTask(t, f, id5); ti5.State != TaskError {
		t.Fatalf("power on deleted vApp: %+v", ti5)
	}

	st := f.Stats()
	if st.Submitted != 5 || st.Completed != 3 || st.Failed != 2 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFrontendValidation pins the cheap pre-injection rejections.
func TestFrontendValidation(t *testing.T) {
	_, _, f := serveCloud(t, 1, 0.5)
	cases := []OpRequest{
		{Kind: OpInstantiate, Org: "nope", Template: "tpl00"},
		{Kind: OpInstantiate, Org: "org0", Template: "missing"},
		{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: -1},
		{Kind: OpPowerOn, Org: "org0"},
		{Kind: OpKind("resize"), Org: "org0"},
	}
	for _, req := range cases {
		if _, err := f.SubmitOp(req); err == nil {
			t.Fatalf("request %+v accepted", req)
		}
	}
	if st := f.Stats(); st.Submitted != 0 {
		t.Fatalf("validation failures consumed task IDs: %+v", st)
	}
}

// A vApp larger than all hosts' memory could hold is rejected at
// submission: no placement could satisfy it, and sizing its task slices
// used to panic the driver (1<<62) or ask for gigabytes (near 1e9).
func TestFrontendRejectsVAppsNoPlacementFits(t *testing.T) {
	_, _, f := serveCloud(t, 1, 0.5)
	topo := DefaultConfig(1).Topology
	most := topo.Hosts * topo.HostMemMB / topo.TemplateMemMB
	huge := int(min(int64(1)<<62, int64(math.MaxInt)))
	for _, vms := range []int{huge, most + 1} {
		_, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: vms})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d VMs", most)) {
			t.Fatalf("vApp of %d VMs: err = %v, want a rejection naming the bound %d", vms, err, most)
		}
	}
	if st := f.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected sizes consumed task IDs: %+v", st)
	}
	if _, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: most}); err != nil {
		t.Fatalf("vApp of %d VMs, the bound: %v", most, err)
	}
}

// TestFrontendScriptedDeterministic runs the same SubmitOp schedule
// twice — model events submitting at fixed virtual times on a
// free-running driver — and requires identical task handles: virtual
// times, queue waits, states, and vApp identities all included.
func TestFrontendScriptedDeterministic(t *testing.T) {
	run := func() []TaskInfo {
		c, drv, f := serveCloud(t, 7, 0.25)
		var ids []int64
		submit := func(req OpRequest) {
			id, err := f.SubmitOp(req)
			if err != nil {
				t.Error(err)
			}
			ids = append(ids, id)
		}
		env := c.Env()
		for i := 0; i < 6; i++ {
			org := []string{"org0", "org1", "org2"}[i%3]
			req := OpRequest{Kind: OpInstantiate, Org: org, Template: "tpl01", VMs: 1 + i%2, PowerOn: i%2 == 0}
			env.Schedule(sim.Time(i)*13.1, func() { submit(req) })
		}
		// A deterministic failure: the target never exists.
		env.Schedule(40.7, func() { submit(OpRequest{Kind: OpPowerOff, Org: "org1", VApp: 999999}) })
		drv.Run(600)
		out := make([]TaskInfo, 0, len(ids))
		for _, id := range ids {
			ti, _ := f.Task(id)
			out = append(out, ti)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scripted frontend runs diverged:\n%+v\n%+v", a, b)
	}
	var success, failure int
	for _, ti := range a {
		switch ti.State {
		case TaskSuccess:
			success++
		case TaskError:
			failure++
		default:
			t.Fatalf("task not resolved by horizon: %+v", ti)
		}
		if ti.QueueWaitS < 0 {
			t.Fatalf("negative queue wait: %+v", ti)
		}
	}
	if success != 6 || failure != 1 {
		t.Fatalf("outcomes %d/%d, want 6/1", success, failure)
	}
}

// TestFrontendQueueWaitQuantization pins the free-running queue-wait
// rule: a request submitted at virtual time 3.5 is stamped with the
// last completed boundary (2), starts at the next boundary (4), and
// waited the virtual gap between the two.
func TestFrontendQueueWaitQuantization(t *testing.T) {
	c, drv, f := serveCloud(t, 3, 2)
	var id int64
	c.Go("client", func(p *sim.Proc) {
		p.Sleep(3.5)
		var err error
		if id, err = f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00"}); err != nil {
			t.Error(err)
		}
	})
	drv.Run(300)
	ti, _ := f.Task(id)
	if ti.State != TaskSuccess {
		t.Fatalf("task: %+v", ti)
	}
	if ti.SubmitV != 2 || ti.StartV != 4 {
		t.Fatalf("submit %v, start %v; want 2 and 4", ti.SubmitV, ti.StartV)
	}
	if ti.QueueWaitS != 2 {
		t.Fatalf("queue wait %v, want 2", ti.QueueWaitS)
	}
}

// TestFrontendRejectOnStop verifies a request still pending when the
// driver stops fails its handle, and post-stop submission reports
// ErrStopped. A model process stops the driver and then submits, so
// the request is queued behind the stop.
func TestFrontendRejectOnStop(t *testing.T) {
	c, drv, f := serveCloud(t, 1, 0.5)
	var id int64
	c.Go("client", func(p *sim.Proc) {
		p.Sleep(3.1)
		drv.Stop()
		var err error
		if id, err = f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00"}); err != nil {
			t.Error(err)
		}
	})
	if end := drv.Run(sim.Forever); end != 3.5 {
		t.Fatalf("driver stopped at %v, want the boundary at 3.5", end)
	}
	ti, _ := f.Task(id)
	if ti.State != TaskError || !strings.Contains(ti.Error, "reject") {
		t.Fatalf("pending task after stop: %+v", ti)
	}
	if st := f.Stats(); st.Failed != 1 || st.InFlight != 0 {
		t.Fatalf("stats after stop: %+v", st)
	}
	if _, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("SubmitOp on a stopped driver: %v, want ErrStopped", err)
	}
	if _, ok := f.OrgView("org0"); ok {
		t.Fatal("OrgView succeeded on a stopped driver")
	}
}

// TestFrontendMetricsLayer checks the api layer shows up in the metrics
// snapshot with the façade's counters.
func TestFrontendMetricsLayer(t *testing.T) {
	c, drv, f := serveCloud(t, 1, 0.5)
	if _, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: 1}); err != nil {
		t.Fatal(err)
	}
	drv.Run(300)
	snap := c.MetricsSnapshot()
	if snap == nil {
		t.Fatal("metrics snapshot nil with Metrics enabled")
	}
	got := map[string]float64{}
	for _, row := range snap.Scalars {
		if row.Layer == "api" {
			got[row.Metric] = row.Value
		}
	}
	if got["submitted"] != 1 || got["completed"] != 1 || got["failed"] != 0 {
		t.Fatalf("api layer scalars: %+v", got)
	}
	st := f.Stats()
	if got["queue_wait_s_total"] != st.QueueWaitSumS || got["queue_wait_s_mean"] != st.QueueWaitMeanS {
		t.Fatalf("api layer queue wait %+v, want Stats %+v", got, st)
	}
}

// TestFrontendProviderView sanity-checks the aggregate capacity view.
func TestFrontendProviderView(t *testing.T) {
	c, drv, f := serveCloud(t, 1, 0.5)
	if _, err := f.SubmitOp(OpRequest{Kind: OpInstantiate, Org: "org0", Template: "tpl00", VMs: 2, PowerOn: true}); err != nil {
		t.Fatal(err)
	}
	done := make(chan sim.Time, 1)
	go func() { done <- drv.Run(sim.Forever) }()
	defer func() {
		drv.Stop()
		<-done
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		pv, ok := f.Provider()
		if !ok {
			t.Fatal("Provider failed on a running driver")
		}
		if pv.VMs == 2 {
			cfg := c.Config()
			if pv.Hosts != cfg.Topology.Hosts || pv.Datastores != cfg.Topology.Datastores {
				t.Fatalf("provider topology: %+v", pv)
			}
			if pv.UsedGB <= 0 || pv.UsedMemMB <= 0 {
				t.Fatalf("provider usage not accounted: %+v", pv)
			}
			if len(pv.TemplateList) != cfg.Topology.Templates {
				t.Fatalf("catalog size %d", len(pv.TemplateList))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VMs never appeared: %+v", pv)
		}
		time.Sleep(time.Millisecond)
	}
}
