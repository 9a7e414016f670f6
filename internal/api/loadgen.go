package api

// The load generator: N virtual users logging into the REST surface and
// cycling vApps through instantiate → poll → delete, with per-request
// latency capture. It lives in the library (not cmd/mcpload) so the E22
// experiment and the CLI drive the same code against an in-process
// handler or a real listener.
//
// Latency is recorded in virtual seconds from the task handle the
// server resolves — queue wait plus control-plane execution — so
// results are comparable across pacing ratios; wall-clock latency is
// kept alongside for the serving view.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cloudmcp/internal/rng"
)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Users is the number of concurrent virtual users.
	Users int
	// Orgs spreads users across org0..orgN-1; default 8 (the façade's
	// default tenant count).
	Orgs int
	// Duration is the wall-clock time to keep submitting; in-flight
	// operations are drained (polled to terminal) for up to DrainGrace
	// after it elapses.
	Duration time.Duration
	// DrainGrace bounds how long past the deadline an in-flight
	// operation may keep polling. Operations still unresolved when it
	// expires are counted as Cutoff — not Failed — so a run against a
	// slow server terminates in bounded wall time instead of hanging in
	// the drain, and short-run truncation is visible as its own column
	// rather than misread as server errors. Default 5s.
	DrainGrace time.Duration
	// VMs is the vApp size per instantiate (default 1).
	VMs int
	// PowerOn requests power-on with each instantiate.
	PowerOn bool
	// Template names the catalog template; "" spreads users across the
	// catalog round-robin.
	Template string
	// ThinkMeanMS is the mean exponential wall think time between
	// operation cycles (0 = closed loop with no think).
	ThinkMeanMS float64
	// Seed derives per-user think/template streams.
	Seed int64
	// Client overrides the HTTP client; nil builds one sized for Users
	// (keep-alive connections matter far more than raw parallelism at
	// this fan-in).
	Client *http.Client
	// PollInitial/PollMax bound the adaptive task-poll backoff.
	// Defaults 20ms and 500ms.
	PollInitial time.Duration
	PollMax     time.Duration
}

// LoadResult aggregates what every user observed.
type LoadResult struct {
	Users     int
	Ops       int64 // operations that reached a terminal task state
	Succeeded int64
	Failed    int64 // terminal error states
	HTTPError int64 // transport/protocol failures (retried)
	Cutoff    int64 // still unresolved when the drain deadline expired

	// Per successful operation, in completion order per user.
	LatenciesS  []float64 // virtual end-to-end (queue wait included)
	QueueWaitsS []float64 // virtual API-layer share
	WallMS      []float64 // wall-clock submit→terminal

	VirtualEndS  float64 // server virtual clock at drain
	WallDuration time.Duration
}

// GoodPerHour is successful operations per virtual hour.
func (r *LoadResult) GoodPerHour() float64 {
	if r.VirtualEndS <= 0 {
		return 0
	}
	return float64(r.Succeeded) / (r.VirtualEndS / 3600)
}

// PercentileS returns the p-th percentile (0..100) of the virtual
// end-to-end latencies, NaN-free: 0 when empty.
func (r *LoadResult) PercentileS(p float64) float64 {
	return percentile(r.LatenciesS, p)
}

// QueueShare is the fraction of total virtual latency spent in
// API-layer queueing.
func (r *LoadResult) QueueShare() float64 {
	var lat, qw float64
	for _, v := range r.LatenciesS {
		lat += v
	}
	for _, v := range r.QueueWaitsS {
		qw += v
	}
	if lat <= 0 {
		return 0
	}
	return qw / lat
}

// Percentile returns the p-th percentile (0..100) of xs; 0 when empty.
func Percentile(xs []float64, p float64) float64 { return percentile(xs, p) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// DefaultClient builds an HTTP client that can keep one warm connection
// per virtual user — without this, a thousand users churn through
// ephemeral ports and the generator measures the TCP stack instead of
// the server.
func DefaultClient(users int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        users + 16,
		MaxIdleConnsPerHost: users + 16,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// loadUser is one virtual user's session state.
type loadUser struct {
	cfg      LoadConfig
	client   *http.Client
	token    string
	org      string
	template string
	think    *rng.Stream
	drainBy  time.Time // hard stop for task polling (deadline + grace)

	res LoadResult
}

// RunLoad drives cfg.Users concurrent users against cfg.BaseURL for
// cfg.Duration and returns the merged result.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("api: load needs at least one user")
	}
	if cfg.Orgs <= 0 {
		cfg.Orgs = 8
	}
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	if cfg.PollInitial <= 0 {
		cfg.PollInitial = 20 * time.Millisecond
	}
	if cfg.PollMax <= 0 {
		cfg.PollMax = 500 * time.Millisecond
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = DefaultClient(cfg.Users)
	}

	catalog, err := fetchCatalog(client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("api: server catalog is empty")
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	drainBy := deadline.Add(cfg.DrainGrace)
	users := make([]*loadUser, cfg.Users)
	var wg sync.WaitGroup
	for i := range users {
		u := &loadUser{
			cfg:     cfg,
			client:  client,
			org:     fmt.Sprintf("org%d", i%cfg.Orgs),
			think:   rng.Derive(cfg.Seed, fmt.Sprintf("loadgen-user%d", i)),
			drainBy: drainBy,
		}
		u.template = cfg.Template
		if u.template == "" {
			u.template = catalog[i%len(catalog)]
		}
		users[i] = u
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u.run(i, deadline)
		}(i)
	}
	wg.Wait()

	merged := &LoadResult{Users: cfg.Users, WallDuration: time.Since(start)}
	for _, u := range users {
		merged.Ops += u.res.Ops
		merged.Succeeded += u.res.Succeeded
		merged.Failed += u.res.Failed
		merged.HTTPError += u.res.HTTPError
		merged.Cutoff += u.res.Cutoff
		merged.LatenciesS = append(merged.LatenciesS, u.res.LatenciesS...)
		merged.QueueWaitsS = append(merged.QueueWaitsS, u.res.QueueWaitsS...)
		merged.WallMS = append(merged.WallMS, u.res.WallMS...)
	}
	st, err := FetchStats(client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	merged.VirtualEndS = st.VirtualNowS
	return merged, nil
}

// run is one user's lifetime: log in, cycle vApps until the deadline,
// drain the last operation.
func (u *loadUser) run(idx int, deadline time.Time) {
	if err := u.login(fmt.Sprintf("user%d", idx)); err != nil {
		u.res.HTTPError++
		return
	}
	var vapp int64
	for time.Now().Before(deadline) {
		ok := false
		if vapp == 0 {
			var id int64
			if id, ok = u.instantiate(); ok {
				vapp = id
			}
		} else if ok = u.deleteVApp(vapp); ok {
			vapp = 0
		}
		if !ok {
			// Failed cycle (quota reject, transport error): back off so a
			// saturated server is not hammered in a hot loop.
			time.Sleep(u.cfg.PollInitial)
		}
		if u.cfg.ThinkMeanMS > 0 {
			dt := time.Duration(u.think.Exponential(u.cfg.ThinkMeanMS)) * time.Millisecond
			time.Sleep(dt)
		}
	}
	// Leave no orphans: drain the vApp the loop may still hold. The
	// drain is bounded like every other poll — if the delete does not
	// resolve by drainBy it is counted as cut off and the vApp is left
	// to the server's own cleanup.
	if vapp != 0 {
		u.deleteVApp(vapp)
	}
}

// instantiate submits a deploy and polls its task; returns the vApp ID
// on success.
func (u *loadUser) instantiate() (int64, bool) {
	body, _ := json.Marshal(InstantiateJSON{Template: u.template, VMs: u.cfg.VMs, PowerOn: u.cfg.PowerOn})
	task, ok := u.submit("POST", "/api/vdc/provider-vdc/action/instantiateVAppTemplate", body)
	if !ok {
		return 0, false
	}
	final, ok := u.awaitTask(task)
	if !ok || final.Status != "success" {
		return 0, false
	}
	return final.VAppID, true
}

// deleteVApp submits a delete and polls it; reports whether the vApp is
// gone (success or a terminal error that means it no longer exists).
func (u *loadUser) deleteVApp(id int64) bool {
	task, ok := u.submit("DELETE", "/api/vApp/"+itoa(id), nil)
	if !ok {
		return false
	}
	final, ok := u.awaitTask(task)
	if !ok {
		return false
	}
	return final.Status == "success" || final.Status == "error"
}

// submit issues one provisioning request and returns the accepted task.
func (u *loadUser) submit(method, path string, body []byte) (TaskJSON, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u.cfg.BaseURL+path, rd)
	if err != nil {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	req.Header.Set(AuthHeader, u.token)
	resp, err := u.client.Do(req)
	if err != nil {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusAccepted {
		// Quota rejections and validation errors come back synchronously.
		u.res.Ops++
		u.res.Failed++
		return TaskJSON{}, false
	}
	var task TaskJSON
	if err := json.NewDecoder(resp.Body).Decode(&task); err != nil {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	return task, true
}

// awaitTask polls the handle with exponential backoff until terminal,
// recording the operation's latency split. Polling stops at u.drainBy:
// an operation still pending then is counted as Cutoff — not Ops, not
// Failed — so the generator's wall time is bounded by Duration +
// DrainGrace even when the server never resolves a task, and deadline
// truncation is never misreported as a server error.
func (u *loadUser) awaitTask(task TaskJSON) (TaskJSON, bool) {
	wall0 := time.Now()
	delay := u.cfg.PollInitial
	for {
		final, ok := u.getTask(task.ID)
		if !ok {
			return TaskJSON{}, false
		}
		switch final.Status {
		case "success":
			u.res.Ops++
			u.res.Succeeded++
			u.res.LatenciesS = append(u.res.LatenciesS, final.LatencyS)
			u.res.QueueWaitsS = append(u.res.QueueWaitsS, final.QueueWaitS)
			u.res.WallMS = append(u.res.WallMS, float64(time.Since(wall0))/float64(time.Millisecond))
			return final, true
		case "error":
			u.res.Ops++
			u.res.Failed++
			return final, true
		}
		if !u.drainBy.IsZero() && !time.Now().Before(u.drainBy) {
			u.res.Cutoff++
			return TaskJSON{}, false
		}
		time.Sleep(delay)
		delay = delay * 3 / 2
		if delay > u.cfg.PollMax {
			delay = u.cfg.PollMax
		}
	}
}

func (u *loadUser) getTask(id int64) (TaskJSON, bool) {
	req, _ := http.NewRequest("GET", u.cfg.BaseURL+taskHref(id), nil)
	req.Header.Set(AuthHeader, u.token)
	resp, err := u.client.Do(req)
	if err != nil {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	var task TaskJSON
	if err := json.NewDecoder(resp.Body).Decode(&task); err != nil {
		u.res.HTTPError++
		return TaskJSON{}, false
	}
	return task, true
}

func (u *loadUser) login(user string) error {
	req, err := http.NewRequest("POST", u.cfg.BaseURL+"/api/sessions", nil)
	if err != nil {
		return err
	}
	req.SetBasicAuth(user+"@"+u.org, "password")
	resp, err := u.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("api: login for %s@%s: status %d", user, u.org, resp.StatusCode)
	}
	u.token = resp.Header.Get(AuthHeader)
	if u.token == "" {
		return fmt.Errorf("api: login returned no %s header", AuthHeader)
	}
	return nil
}

// fetchCatalog logs in as a scout and lists template names.
func fetchCatalog(client *http.Client, baseURL string) ([]string, error) {
	req, err := http.NewRequest("POST", baseURL+"/api/sessions", nil)
	if err != nil {
		return nil, err
	}
	req.SetBasicAuth("loadgen@org0", "password")
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: cannot reach server at %s: %w", baseURL, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("api: scout login: status %d", resp.StatusCode)
	}
	token := resp.Header.Get(AuthHeader)

	req, err = http.NewRequest("GET", baseURL+vdcHref(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(AuthHeader, token)
	resp2, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp2)
	if resp2.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: catalog read: status %d", resp2.StatusCode)
	}
	var vdc VDCJSON
	if err := json.NewDecoder(resp2.Body).Decode(&vdc); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(vdc.Templates))
	for _, t := range vdc.Templates {
		names = append(names, t.Name)
	}
	return names, nil
}

// FetchStats reads the operator stats endpoint.
func FetchStats(client *http.Client, baseURL string) (StatsJSON, error) {
	req, err := http.NewRequest("POST", baseURL+"/api/sessions", nil)
	if err != nil {
		return StatsJSON{}, err
	}
	req.SetBasicAuth("stats@org0", "password")
	resp, err := client.Do(req)
	if err != nil {
		return StatsJSON{}, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		return StatsJSON{}, fmt.Errorf("api: stats login: status %d", resp.StatusCode)
	}
	token := resp.Header.Get(AuthHeader)

	req, err = http.NewRequest("GET", baseURL+"/api/admin/stats", nil)
	if err != nil {
		return StatsJSON{}, err
	}
	req.Header.Set(AuthHeader, token)
	resp2, err := client.Do(req)
	if err != nil {
		return StatsJSON{}, err
	}
	defer drainClose(resp2)
	if resp2.StatusCode != http.StatusOK {
		return StatsJSON{}, fmt.Errorf("api: stats read: status %d", resp2.StatusCode)
	}
	var st StatsJSON
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		return StatsJSON{}, err
	}
	return st, nil
}

// drainClose empties and closes a response body so the connection is
// reusable.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
