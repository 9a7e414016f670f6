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
	"sync"
	"time"

	"cloudmcp/internal/report"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/stats"
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
	// PollInitial/PollMax bound the adaptive task-poll backoff.
	// Defaults 20ms and 500ms.
	PollInitial time.Duration
	PollMax     time.Duration
}

// LoadResult aggregates what every user observed.
type LoadResult struct {
	Users     int
	Ratio     float64 // the server's pacing ratio, virtual s per wall s
	Shards    int     // the server's management-plane shards
	Ops       int64   // operations that reached a terminal task state
	Succeeded int64
	Failed    int64 // terminal error states
	HTTPError int64 // transport/protocol failures (retried)
	Cutoff    int64 // still unresolved when the drain deadline expired

	// Per successful operation.
	LatenciesS  stats.Sample // virtual end-to-end (queue wait included)
	QueueWaitsS stats.Sample // virtual API-layer share
	WallMS      stats.Sample // wall-clock submit→terminal

	VirtualEndS  float64 // server virtual clock at drain
	WallDuration time.Duration
}

// Row converts the result into its report row: goodput per virtual
// hour, the latency percentiles, and the share of virtual latency spent
// in API-layer queueing. MaxLagMS stays zero; only the process that
// runs the driver can read it.
func (r *LoadResult) Row() report.APIRow {
	row := report.APIRow{
		Users:  r.Users,
		Ratio:  r.Ratio,
		Shards: r.Shards,
		P50S:   r.LatenciesS.Percentile(50),
		P99S:   r.LatenciesS.Percentile(99),
		Errors: r.Failed + r.HTTPError,
		Cutoff: r.Cutoff,
	}
	if r.VirtualEndS > 0 {
		row.GoodPerH = float64(r.Succeeded) / (r.VirtualEndS / 3600)
	}
	// Both samples hold one value per successful operation, so the
	// ratio of their means is the ratio of their sums.
	if lat := r.LatenciesS.Mean(); lat > 0 {
		row.APIShare = r.QueueWaitsS.Mean() / lat
	}
	return row
}

// loadUser is one virtual user's session state.
type loadUser struct {
	cfg      LoadConfig
	c        restClient
	template string
	think    *rng.Stream
	drainBy  time.Time // hard stop for task polling (deadline + grace)

	res LoadResult
}

// withDefaults checks cfg and fills in every zero field that has a
// default.
func (cfg LoadConfig) withDefaults() (LoadConfig, error) {
	if cfg.Users <= 0 {
		return cfg, fmt.Errorf("api: load needs at least one user")
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
	return cfg, nil
}

// RunLoad drives cfg.Users concurrent users against cfg.BaseURL for
// cfg.Duration and returns the merged result.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// One warm connection per virtual user: without them, a thousand
	// users churn through ephemeral ports and the generator measures the
	// TCP stack instead of the server.
	hc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Users + 16,
			MaxIdleConnsPerHost: cfg.Users + 16,
			IdleConnTimeout:     90 * time.Second,
		},
		Timeout: 60 * time.Second,
	}
	defer hc.CloseIdleConnections()

	var vdc VDCJSON
	if err := scoutGet(hc, cfg.BaseURL, vdcHref(), &vdc); err != nil {
		return nil, err
	}
	if len(vdc.Templates) == 0 {
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
			c:       restClient{http: hc, base: cfg.BaseURL},
			think:   rng.Derive(cfg.Seed, fmt.Sprintf("loadgen-user%d", i)),
			drainBy: drainBy,
		}
		u.template = cfg.Template
		if u.template == "" {
			u.template = vdc.Templates[i%len(vdc.Templates)].Name
		}
		users[i] = u
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u.run(fmt.Sprintf("user%d@org%d", i, i%cfg.Orgs), deadline)
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
		merged.LatenciesS.Merge(&u.res.LatenciesS)
		merged.QueueWaitsS.Merge(&u.res.QueueWaitsS)
		merged.WallMS.Merge(&u.res.WallMS)
	}
	var st StatsJSON
	if err := scoutGet(hc, cfg.BaseURL, "/api/admin/stats", &st); err != nil {
		return nil, err
	}
	merged.VirtualEndS, merged.Ratio, merged.Shards = st.VirtualNowS, st.PacedRatio, st.Shards
	return merged, nil
}

// run is one user's lifetime: log in, cycle vApps until the deadline,
// drain the last operation.
func (u *loadUser) run(user string, deadline time.Time) {
	if err := u.c.login(user); err != nil {
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
	body := InstantiateJSON{Template: u.template, VMs: u.cfg.VMs, PowerOn: u.cfg.PowerOn}
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
func (u *loadUser) submit(method, path string, body any) (TaskJSON, bool) {
	var task TaskJSON
	status, err := u.c.do(method, path, body, http.StatusAccepted, &task)
	switch {
	case err == nil:
		return task, true
	case status != 0 && status != http.StatusAccepted:
		// Quota rejections and validation errors come back synchronously.
		u.res.Ops++
		u.res.Failed++
	default:
		u.res.HTTPError++
	}
	return TaskJSON{}, false
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
		var final TaskJSON
		if _, err := u.c.do("GET", taskHref(task.ID), nil, http.StatusOK, &final); err != nil {
			u.res.HTTPError++
			return TaskJSON{}, false
		}
		switch final.Status {
		case "success":
			u.res.Ops++
			u.res.Succeeded++
			u.res.LatenciesS.Add(final.LatencyS)
			u.res.QueueWaitsS.Add(final.QueueWaitS)
			u.res.WallMS.Add(float64(time.Since(wall0)) / float64(time.Millisecond))
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

// restClient is the load generator's one REST client: every login and
// every authenticated JSON request goes through it.
type restClient struct {
	http  *http.Client
	base  string
	token string // the session that login opened
}

// login opens a session as user ("name@org") and keeps its token.
func (c *restClient) login(user string) error {
	req, err := http.NewRequest("POST", c.base+"/api/sessions", nil)
	if err != nil {
		return err
	}
	req.SetBasicAuth(user, "password")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("api: cannot reach server at %s: %w", c.base, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("api: login as %s: status %d", user, resp.StatusCode)
	}
	c.token = resp.Header.Get(AuthHeader)
	if c.token == "" {
		return fmt.Errorf("api: login returned no %s header", AuthHeader)
	}
	return nil
}

// do sends one authenticated request, with in (when non-nil) as its
// JSON body, and decodes a want-status answer into out (when non-nil).
// It returns the answer's status, 0 when none arrived; err reports a
// failed request, any status but want, or an undecodable answer.
func (c *restClient) do(method, path string, in any, want int, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set(AuthHeader, c.token)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer drainClose(resp)
	if resp.StatusCode != want {
		return resp.StatusCode, fmt.Errorf("api: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("api: %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// scoutGet logs in as loadgen@org0 and reads path into out. Each read
// opens its own session, since one held across the run could idle past
// the server's session TTL.
func scoutGet(hc *http.Client, base, path string, out any) error {
	c := restClient{http: hc, base: base}
	if err := c.login("loadgen@org0"); err != nil {
		return err
	}
	_, err := c.do("GET", path, nil, http.StatusOK, out)
	return err
}

// drainClose empties and closes a response body so the connection is
// reusable.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
