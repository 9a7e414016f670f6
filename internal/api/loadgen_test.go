package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stuckServer mimics the REST surface just enough for the load
// generator, but its tasks never leave "running". It is the regression
// fixture for the drain-deadline contract: before the cutoff fix the
// generator's awaitTask loop polled such a task forever.
type stuckServer struct {
	nextTask atomic.Int64
	polls    atomic.Int64
	// failGET, when set, is a path whose GET answers 500.
	failGET string
}

func (s *stuckServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == "GET" && r.URL.Path == s.failGET:
		http.Error(w, "unavailable", http.StatusInternalServerError)
	case r.Method == "POST" && r.URL.Path == "/api/sessions":
		w.Header().Set(AuthHeader, "stuck-token")
		w.WriteHeader(http.StatusCreated)
	case r.Method == "GET" && r.URL.Path == vdcHref():
		_ = json.NewEncoder(w).Encode(VDCJSON{
			Name:      "stuck",
			Templates: []TemplateJSON{{Name: "tmpl", DiskGB: 1, MemMB: 512, CPUs: 1}},
		})
	case r.Method == "POST" && strings.HasSuffix(r.URL.Path, "instantiateVAppTemplate"):
		id := s.nextTask.Add(1)
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(TaskJSON{ID: id, Status: "running"})
	case r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/api/task/"):
		s.polls.Add(1)
		_ = json.NewEncoder(w).Encode(TaskJSON{Status: "running"})
	case r.Method == "GET" && r.URL.Path == "/api/admin/stats":
		_ = json.NewEncoder(w).Encode(StatsJSON{})
	default:
		http.Error(w, "unexpected: "+r.Method+" "+r.URL.Path, http.StatusNotFound)
	}
}

// TestLoadCutoffAtDrainDeadline pins the deadline accounting: against a
// server that never resolves tasks, RunLoad must return within Duration
// + DrainGrace (plus scheduling slack), count the unresolved operations
// as Cutoff, and not misreport them as failures or terminal ops.
func TestLoadCutoffAtDrainDeadline(t *testing.T) {
	stuck := &stuckServer{}
	ts := httptest.NewServer(stuck)
	defer ts.Close()

	const (
		duration = 200 * time.Millisecond
		grace    = 300 * time.Millisecond
	)
	start := time.Now()
	res, err := RunLoad(LoadConfig{
		BaseURL:     ts.URL,
		Users:       4,
		Duration:    duration,
		DrainGrace:  grace,
		Seed:        1,
		PollInitial: 10 * time.Millisecond,
		PollMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	elapsed := time.Since(start)

	// Generous slack: the bound being tested is "terminates promptly",
	// not a tight latency envelope.
	if limit := duration + grace + 5*time.Second; elapsed > limit {
		t.Fatalf("RunLoad took %v, want <= %v (drain deadline not enforced)", elapsed, limit)
	}
	if res.Cutoff == 0 {
		t.Fatalf("Cutoff = 0, want > 0: every op was unresolvable, res = %+v", res)
	}
	if res.Failed != 0 || res.HTTPError != 0 {
		t.Fatalf("cut-off ops misreported as failures: Failed=%d HTTPError=%d", res.Failed, res.HTTPError)
	}
	if res.Ops != 0 || res.Succeeded != 0 {
		t.Fatalf("no task ever reached terminal state, yet Ops=%d Succeeded=%d", res.Ops, res.Succeeded)
	}
	if stuck.polls.Load() == 0 {
		t.Fatal("stub was never polled; test fixture is not exercising awaitTask")
	}
}

// TestLoadDefaultsDrainGrace pins the default so an unconfigured run is
// still wall-bounded: a zero grace resolves to 5 s, which bounds the run
// at Duration + 5 s and cuts off what is unresolved then. It checks the
// resolution RunLoad starts with instead of waiting the grace out;
// TestLoadCutoffAtDrainDeadline covers the cutoff itself.
func TestLoadDefaultsDrainGrace(t *testing.T) {
	cfg, err := LoadConfig{
		Users:       1,
		Duration:    50 * time.Millisecond,
		Seed:        1,
		PollInitial: 10 * time.Millisecond,
		PollMax:     20 * time.Millisecond,
	}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if cfg.DrainGrace != 5*time.Second {
		t.Fatalf("DrainGrace = %v with none given, want the 5s default", cfg.DrainGrace)
	}
	if cfg.Duration != 50*time.Millisecond || cfg.PollInitial != 10*time.Millisecond || cfg.PollMax != 20*time.Millisecond {
		t.Fatalf("explicit fields overridden: %+v", cfg)
	}
	if _, err := (LoadConfig{}).withDefaults(); err == nil {
		t.Fatal("a config with no users resolved without error")
	}
}

// TestLoadFailsOnErrorStatus pins that a failed catalog or stats read
// fails the run: RunLoad must return an error naming the status instead
// of decoding the error body into an empty catalog or a zero virtual
// clock.
func TestLoadFailsOnErrorStatus(t *testing.T) {
	for _, path := range []string{vdcHref(), "/api/admin/stats"} {
		ts := httptest.NewServer(&stuckServer{failGET: path})
		_, err := RunLoad(LoadConfig{
			BaseURL:     ts.URL,
			Users:       1,
			Duration:    20 * time.Millisecond,
			DrainGrace:  20 * time.Millisecond,
			Seed:        1,
			PollInitial: 5 * time.Millisecond,
			PollMax:     10 * time.Millisecond,
		})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), "status 500") {
			t.Fatalf("RunLoad with GET %s failing: err = %v, want status 500", path, err)
		}
	}
}
