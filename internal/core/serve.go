package core

// The serving façade: the seam where external callers — an API server,
// a replay tool, a test — hand work to a running simulation and watch it
// complete in virtual time.
//
// Historically core drove itself: experiments spawned workload
// generators inside the kernel and read the results after Run returned.
// A served system inverts that — requests arrive on ordinary goroutines,
// in wall time, and the caller holds a task handle while the simulated
// control plane grinds through cell stages, placement, and the
// management plane. Frontend is that inversion. It validates a request
// cheaply on the caller's goroutine, enqueues it on the paced driver's
// injection point, and resolves the handle from inside the simulation:
// queued until the command crosses a quantum boundary, running while the
// director executes it, then success or error stamped with virtual
// completion time.
//
// The API-layer queue wait is measured here and attributed separately
// from the control plane's own latency: it is the wall time a request
// waited for the next injection boundary scaled by the pacing ratio into
// virtual seconds (so a driver lagging its wall schedule shows up as
// real queueing, exactly like a saturated API cell). A free-running
// driver has no wall schedule, so there it is the virtual gap between
// the last completed boundary at submission and the injecting boundary,
// which is deterministic.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudmcp/internal/inventory"
	"cloudmcp/internal/sim"
)

// OpKind names an external operation on the serving surface.
type OpKind string

// The operations the façade accepts, mirroring the VCD verbs the paper's
// workload is built from.
const (
	OpInstantiate OpKind = "instantiate"
	OpPowerOn     OpKind = "powerOn"
	OpPowerOff    OpKind = "powerOff"
	OpDelete      OpKind = "delete"
)

// TaskState is the lifecycle of an async task handle.
type TaskState string

// Task states. Every task ends in success or error.
const (
	TaskQueued  TaskState = "queued"
	TaskRunning TaskState = "running"
	TaskSuccess TaskState = "success"
	TaskError   TaskState = "error"
)

// Terminal reports whether the state is final.
func (s TaskState) Terminal() bool { return s == TaskSuccess || s == TaskError }

// OpRequest is one external operation.
type OpRequest struct {
	Kind OpKind
	// Org is the tenant on whose behalf the operation runs; it must be
	// one of the frontend's configured orgs.
	Org string
	// Template names a catalog template (instantiate only).
	Template string
	// VMs is the vApp size (instantiate only; 0 means 1).
	VMs int
	// PowerOn requests power-on as part of instantiate.
	PowerOn bool
	// VApp targets an existing vApp (power and delete ops).
	VApp inventory.ID
}

// TaskInfo is a snapshot of an async task handle.
type TaskInfo struct {
	ID    int64
	Op    OpKind
	Org   string
	State TaskState
	// SubmitV is the virtual clock when the request was accepted: the
	// last completed boundary. StartV/EndV are stamped inside the
	// simulation.
	SubmitV sim.Time
	StartV  sim.Time
	EndV    sim.Time
	// QueueWaitS is the API-layer queue wait in virtual seconds — time
	// spent between submission and injection, before the control plane
	// saw the request. It is attributed separately from the operation's
	// own latency (EndV - StartV).
	QueueWaitS float64
	Error      string
	// VApp/VAppName identify the vApp the operation created or targeted.
	VApp     inventory.ID
	VAppName string
	// MgmtTasks counts management-plane tasks the operation issued.
	MgmtTasks int
}

// Latency returns the end-to-end virtual seconds including API queueing;
// zero until the task is terminal.
func (t TaskInfo) Latency() float64 {
	if !t.State.Terminal() {
		return 0
	}
	return t.QueueWaitS + float64(t.EndV-t.StartV)
}

// FrontendConfig shapes the serving façade.
type FrontendConfig struct {
	// Orgs is the number of tenants (org0..orgN-1), matching the
	// workload generator's naming. Default 8.
	Orgs int
}

// FrontendStats summarizes the façade's counters.
type FrontendStats struct {
	Submitted      int64
	Completed      int64 // terminal successes
	Failed         int64 // terminal errors (including rejections)
	InFlight       int64 // queued + running
	QueueWaitSumS  float64
	QueueWaitMeanS float64 // over tasks that reached injection
}

// ErrStopped is the error SubmitOp returns once the paced driver has
// stopped accepting submissions.
var ErrStopped = errors.New("core: frontend stopped")

// TemplateInfo describes one catalog entry.
type TemplateInfo struct {
	Name   string
	DiskGB float64
	MemMB  int
	CPUs   int
}

// VAppView is an org-scoped view of one vApp.
type VAppView struct {
	ID        inventory.ID
	Name      string
	Org       string
	VMs       int
	PoweredOn int
}

// OrgView is the session-scoped slice of the inventory one tenant sees.
type OrgView struct {
	Name     string
	QuotaVMs int // 0 = unlimited
	LiveVMs  int
	VApps    []VAppView
}

// ProviderView aggregates the provider vDC capacity backing every org.
type ProviderView struct {
	Hosts        int
	CPUMHz       int
	UsedCPUMHz   int
	MemMB        int
	UsedMemMB    int
	Datastores   int
	CapacityGB   float64
	UsedGB       float64
	VMs          int
	VApps        int
	VirtualNowS  sim.Time
	PacedRatio   float64
	ShardCount   int
	OrgCount     int
	TemplateList []TemplateInfo
}

// Frontend is the external-command façade over a paced simulation. It is
// safe for concurrent use; all mutation of model state happens on the
// driver goroutine via the injection point.
type Frontend struct {
	cloud *Cloud
	drv   *sim.Paced

	orgSet    map[string]bool
	templates map[string]catalogEntry
	catalog   []TemplateInfo

	mu       sync.Mutex
	tasks    map[int64]*TaskInfo
	nextID   int64
	stats    FrontendStats // Submitted, Completed, Failed, QueueWaitSumS
	injected int64         // tasks that reached injection
}

// catalogEntry is one served template and the largest vApp of it that
// the hosts' memory, all of it free, could hold: a larger request is
// rejected before it reaches the simulation.
type catalogEntry struct {
	id     inventory.ID
	maxVMs int64
}

// NewFrontend wraps a cloud and its paced driver in a serving façade and
// registers the API layer's counters with the metrics registry (a no-op
// when metrics are disabled). Call before Run starts serving; the
// catalog snapshot is taken here.
func NewFrontend(c *Cloud, drv *sim.Paced, cfg FrontendConfig) *Frontend {
	if cfg.Orgs <= 0 {
		cfg.Orgs = 8
	}
	f := &Frontend{
		cloud:     c,
		drv:       drv,
		orgSet:    make(map[string]bool, cfg.Orgs),
		templates: make(map[string]catalogEntry),
		tasks:     make(map[int64]*TaskInfo),
	}
	for i := 0; i < cfg.Orgs; i++ {
		f.orgSet[fmt.Sprintf("org%d", i)] = true
	}
	inv := c.Inventory()
	var memMB int64
	for _, id := range inv.Hosts() {
		memMB += int64(inv.Host(id).MemMB)
	}
	for _, id := range inv.Templates() {
		tpl := inv.Template(id)
		if tpl == nil {
			continue
		}
		f.templates[tpl.Name] = catalogEntry{id, memMB / int64(max(tpl.MemMB, 1))}
		f.catalog = append(f.catalog, TemplateInfo{
			Name: tpl.Name, DiskGB: tpl.DiskGB, MemMB: tpl.MemMB, CPUs: tpl.CPUs,
		})
	}
	sort.Slice(f.catalog, func(i, j int) bool { return f.catalog[i].Name < f.catalog[j].Name })

	reg := c.MetricsRegistry()
	for _, probe := range []struct {
		name string
		read func(FrontendStats) float64
	}{
		{"submitted", func(s FrontendStats) float64 { return float64(s.Submitted) }},
		{"completed", func(s FrontendStats) float64 { return float64(s.Completed) }},
		{"failed", func(s FrontendStats) float64 { return float64(s.Failed) }},
		{"queue_wait_s_total", func(s FrontendStats) float64 { return s.QueueWaitSumS }},
		{"queue_wait_s_mean", func(s FrontendStats) float64 { return s.QueueWaitMeanS }},
	} {
		reg.ScalarFunc("api", "frontend", probe.name, func() float64 { return probe.read(f.Stats()) })
	}
	return f
}

// Cloud returns the served cloud.
func (f *Frontend) Cloud() *Cloud { return f.cloud }

// Driver returns the paced driver the façade injects through.
func (f *Frontend) Driver() *sim.Paced { return f.drv }

// KnownOrg reports whether name is a configured tenant.
func (f *Frontend) KnownOrg(name string) bool { return f.orgSet[name] }

// Catalog lists the template catalog (snapshot at construction).
func (f *Frontend) Catalog() []TemplateInfo { return append([]TemplateInfo(nil), f.catalog...) }

// Clock returns the serving virtual clock (last completed boundary).
func (f *Frontend) Clock() sim.Time { return f.drv.VirtualNow() }

// validate rejects malformed requests before they cost an injection slot.
func (f *Frontend) validate(req *OpRequest) error {
	if !f.orgSet[req.Org] {
		return fmt.Errorf("core: unknown org %q", req.Org)
	}
	switch req.Kind {
	case OpInstantiate:
		if req.VMs == 0 {
			req.VMs = 1
		}
		if req.VMs < 0 {
			return fmt.Errorf("core: vApp size %d", req.VMs)
		}
		tpl, ok := f.templates[req.Template]
		if !ok {
			return fmt.Errorf("core: unknown template %q", req.Template)
		}
		if int64(req.VMs) > tpl.maxVMs {
			return fmt.Errorf("core: vApp size %d: all hosts' memory holds at most %d VMs of template %q", req.VMs, tpl.maxVMs, req.Template)
		}
	case OpPowerOn, OpPowerOff, OpDelete:
		if req.VApp == inventory.None {
			return fmt.Errorf("core: %s requires a vApp target", req.Kind)
		}
	default:
		return fmt.Errorf("core: unknown op kind %q", req.Kind)
	}
	return nil
}

// SubmitOp validates req, enqueues it for the next injection boundary,
// and returns the async task ID immediately. The task resolves in
// virtual time; poll it with Task. Safe from any goroutine. Once the
// driver has stopped, the task is rejected and the error is ErrStopped.
func (f *Frontend) SubmitOp(req OpRequest) (int64, error) {
	if err := f.validate(&req); err != nil {
		return 0, err
	}
	submitV := f.drv.VirtualNow()
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	f.tasks[id] = &TaskInfo{
		ID: id, Op: req.Kind, Org: req.Org, State: TaskQueued,
		SubmitV: submitV, VApp: req.VApp,
	}
	f.stats.Submitted++
	f.mu.Unlock()

	wall0 := time.Now()
	fn := func(env *sim.Env) {
		qw := float64(env.Now() - submitV)
		if r := f.drv.Ratio(); r > 0 {
			qw = time.Since(wall0).Seconds() * r
		}
		f.markInjected(id, qw)
		env.Go("api:task", func(p *sim.Proc) {
			f.markRunning(id, p.Now())
			vapp, name, n, err := f.execute(p, req)
			f.markDone(id, p.Now(), vapp, name, n, err)
		})
	}
	if !f.drv.Submit(fn, func() { f.markRejected(id) }) {
		f.markRejected(id)
		return id, ErrStopped
	}
	return id, nil
}

// execute runs one operation on the driver goroutine, inside the
// simulation, and returns what the handle should record.
func (f *Frontend) execute(p *sim.Proc, req OpRequest) (vapp inventory.ID, name string, mgmtTasks int, err error) {
	dir := f.cloud.Director()
	inv := f.cloud.Inventory()
	switch req.Kind {
	case OpInstantiate:
		tpl := inv.Template(f.templates[req.Template].id)
		if tpl == nil {
			return inventory.None, "", 0, fmt.Errorf("core: template %q vanished", req.Template)
		}
		res := dir.DeployVApp(p, req.Org, tpl, req.VMs, req.PowerOn)
		if res.VApp != nil {
			vapp, name = res.VApp.ID, res.VApp.Name
		}
		return vapp, name, len(res.Tasks), res.Err
	case OpPowerOn, OpPowerOff:
		va := inv.VApp(req.VApp)
		if va == nil {
			return inventory.None, "", 0, fmt.Errorf("core: no such vApp %d", req.VApp)
		}
		if va.OrgName != req.Org {
			return inventory.None, "", 0, fmt.Errorf("core: vApp %d not owned by org %s", req.VApp, req.Org)
		}
		mgmtTasks, err = dir.PowerVApp(p, va, req.Org, req.Kind == OpPowerOn)
		return va.ID, va.Name, mgmtTasks, err
	case OpDelete:
		va := inv.VApp(req.VApp)
		if va == nil {
			return inventory.None, "", 0, fmt.Errorf("core: no such vApp %d", req.VApp)
		}
		if va.OrgName != req.Org {
			return inventory.None, "", 0, fmt.Errorf("core: vApp %d not owned by org %s", req.VApp, req.Org)
		}
		id, vaName := va.ID, va.Name
		mgmtTasks, err = dir.DeleteVApp(p, va, req.Org)
		return id, vaName, mgmtTasks, err
	}
	return inventory.None, "", 0, fmt.Errorf("core: unknown op kind %q", req.Kind)
}

func (f *Frontend) markInjected(id int64, queueWaitS float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t := f.tasks[id]; t != nil {
		t.QueueWaitS = queueWaitS
	}
	f.stats.QueueWaitSumS += queueWaitS
	f.injected++
}

func (f *Frontend) markRunning(id int64, v sim.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t := f.tasks[id]; t != nil && t.State == TaskQueued {
		t.State = TaskRunning
		t.StartV = v
	}
}

func (f *Frontend) markDone(id int64, v sim.Time, vapp inventory.ID, name string, mgmtTasks int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tasks[id]
	if t == nil || t.State.Terminal() {
		return
	}
	t.EndV = v
	t.MgmtTasks = mgmtTasks
	if vapp != inventory.None {
		t.VApp, t.VAppName = vapp, name
	}
	if err != nil {
		t.State = TaskError
		t.Error = err.Error()
		f.stats.Failed++
	} else {
		t.State = TaskSuccess
		f.stats.Completed++
	}
}

func (f *Frontend) markRejected(id int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tasks[id]
	if t == nil || t.State.Terminal() {
		return
	}
	t.State = TaskError
	t.Error = "server stopping: request rejected before injection"
	f.stats.Failed++
}

// Task returns a snapshot of the handle with the given ID.
func (f *Frontend) Task(id int64) (TaskInfo, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tasks[id]
	if t == nil {
		return TaskInfo{}, false
	}
	return *t, true
}

// Stats returns the façade's counters.
func (f *Frontend) Stats() FrontendStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.InFlight = s.Submitted - s.Completed - s.Failed
	if f.injected > 0 {
		s.QueueWaitMeanS = s.QueueWaitSumS / float64(f.injected)
	}
	return s
}

// OrgView takes a consistent, org-scoped inventory snapshot through the
// driver's synchronous read path. It reports false for unknown orgs or
// once the driver has stopped.
func (f *Frontend) OrgView(org string) (OrgView, bool) {
	if !f.orgSet[org] {
		return OrgView{}, false
	}
	view := OrgView{Name: org}
	ok := f.drv.Do(func(env *sim.Env) {
		inv := f.cloud.Inventory()
		dir := f.cloud.Director()
		view.QuotaVMs = dir.Config().OrgQuotaVMs
		view.LiveVMs = dir.OrgLiveVMs(org)
		for _, id := range inv.VApps() {
			va := inv.VApp(id)
			if va == nil || va.OrgName != org {
				continue
			}
			view.VApps = append(view.VApps, vappView(inv, va))
		}
	})
	return view, ok
}

// VApp returns an org-scoped view of one vApp; false when it does not
// exist, is not owned by org, or the driver has stopped.
func (f *Frontend) VApp(org string, id inventory.ID) (VAppView, bool) {
	var view VAppView
	found := false
	ok := f.drv.Do(func(env *sim.Env) {
		inv := f.cloud.Inventory()
		va := inv.VApp(id)
		if va == nil || va.OrgName != org {
			return
		}
		view = vappView(inv, va)
		found = true
	})
	return view, ok && found
}

func vappView(inv *inventory.Inventory, va *inventory.VApp) VAppView {
	v := VAppView{ID: va.ID, Name: va.Name, Org: va.OrgName, VMs: len(va.VMs)}
	for _, id := range va.VMs {
		if vm := inv.VM(id); vm != nil && vm.State == inventory.VMPoweredOn {
			v.PoweredOn++
		}
	}
	return v
}

// Provider aggregates provider-vDC capacity across the installation. It
// reports false once the driver has stopped.
func (f *Frontend) Provider() (ProviderView, bool) {
	view := ProviderView{
		PacedRatio:   f.drv.Ratio(),
		OrgCount:     len(f.orgSet),
		TemplateList: f.Catalog(),
	}
	ok := f.drv.Do(func(env *sim.Env) {
		inv := f.cloud.Inventory()
		view.VirtualNowS = env.Now()
		view.ShardCount = f.cloud.Plane().ShardCount()
		for _, id := range inv.Hosts() {
			h := inv.Host(id)
			if h == nil {
				continue
			}
			view.Hosts++
			view.CPUMHz += h.CPUMHz
			view.UsedCPUMHz += h.UsedCPUMHz
			view.MemMB += h.MemMB
			view.UsedMemMB += h.UsedMemMB
		}
		for _, id := range inv.Datastores() {
			ds := inv.Datastore(id)
			if ds == nil {
				continue
			}
			view.Datastores++
			view.CapacityGB += ds.CapacityGB
			view.UsedGB += ds.UsedGB
		}
		view.VMs = len(inv.VMs())
		view.VApps = len(inv.VApps())
	})
	return view, ok
}
