package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/sim"
)

// serve-paced: the mcpserve stack on loopback — four shards, trace off,
// the paced driver at 3000 virtual s per wall s with a 0.25 virtual s
// quantum — with two closed-loop clients in the same process, over two
// keep-alive connections and one session per org.
const (
	serveRatio    = 3000
	serveQuantumS = 0.25
	serveClients  = 2
	serveOrgs     = 8
)

func serveDuration(quick bool) time.Duration {
	if quick {
		return 300 * time.Millisecond
	}
	return 750 * time.Millisecond
}

// serveWarmUp is how long the same load runs against a fresh server
// before the measured phase, so that the measured requests find warm
// connections, heap and caches, as they would on a long-running server.
const serveWarmUp = 100 * time.Millisecond

// server is the served stack of one serve-paced repetition.
type server struct {
	cloud    *core.Cloud
	drv      *sim.Paced
	fe       *core.Frontend
	hs       *http.Server
	addr     string
	runDone  chan struct{}
	serveErr chan error
	setupS   float64
	m        meter
}

// startServer builds and starts the stack.
func startServer(seed int64, metrics bool) (*server, error) {
	t0 := time.Now()
	cfg := core.DefaultConfig(seed)
	cfg.Plane.Shards = 4
	cfg.Record = false
	cfg.Metrics = metrics
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	drv := sim.NewPaced(c.Env(), sim.PacedConfig{Ratio: serveRatio, QuantumS: serveQuantumS})
	fe := core.NewFrontend(c, drv, core.FrontendConfig{Orgs: serveOrgs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		cloud: c, drv: drv, fe: fe, addr: ln.Addr().String(),
		hs:      &http.Server{Handler: api.NewServer(fe)},
		runDone: make(chan struct{}), serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	go func() {
		drv.Run(sim.Forever)
		close(s.runDone)
	}()
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// stop ends the measured phase, records the backlog still in flight,
// drains (stop injecting, then shut HTTP down) and reports.
func (s *server) stop() (rep, error) {
	var r rep
	s.m.stop(&r)
	st := s.fe.Stats()
	s.drv.Stop()
	<-s.runDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.SetupS = s.setupS
	r.LagMS = float64(s.drv.MaxLag()) / float64(time.Millisecond)
	r.Sim = simLayers(s.cloud, nil)
	r.Sim["frontend.queue_wait_s_mean"] = st.QueueWaitMeanS
	r.Sim["frontend.inflight_end"] = float64(st.InFlight)
	if err == nil && s.cloud.Config().Metrics {
		r.Registry, err = registryJSON(s.cloud)
	}
	return r, err
}

// runServe runs one serve-paced repetition: start the stack, warm it
// up, drive the measured load against it over loopback from this same
// process, then drain and report. The measured phase covers both sides,
// so its CPU time is the whole stack's. A traced repetition (prof
// non-nil) runs with the metrics registry on and profiles set-up and the
// run.
func runServe(seed int64, quick bool, prof *profiler) (rep, error) {
	if err := prof.start(); err != nil {
		return rep{}, err
	}
	srv, err := startServer(seed, prof != nil)
	if err != nil {
		return rep{}, err
	}
	var st *loadStats
	warm, gerr := generate(srv.addr, seed, serveWarmUp)
	if gerr == nil && warm.Failed > 0 {
		gerr = fmt.Errorf("warm-up: %d of %d requests failed", warm.Failed, warm.Requests)
	}
	if gerr == nil {
		srv.m = startMeter()
		st, gerr = generate(srv.addr, seed, serveDuration(quick))
	}
	r, err := srv.stop()
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err := errors.Join(gerr, err); err != nil {
		return rep{}, err
	}
	r.Load = st
	r.WallS = st.WallS
	r.Ops, r.OpsFailed = st.Requests, st.Failed
	r.LatMS = st.requestMS()
	return r, nil
}

// generate opens one session per org and runs the closed-loop clients
// for d.
func generate(addr string, seed int64, d time.Duration) (*loadStats, error) {
	cl, err := newHTTPClient(addr, serveOrgs, serveClients)
	if err != nil {
		return nil, err
	}
	defer cl.hc.CloseIdleConnections()
	cfg := loadConfig{
		Seed: seed, Duration: d, Clients: serveClients,
		Orgs: serveOrgs, Templates: len(cl.templates), Grace: 5 * time.Second,
	}
	return runLoad(cfg, cl, wallClock{t0: time.Now()}), nil
}

// httpClient speaks the served REST API, one session per org, over a
// pool of keep-alive connections (one per client).
type httpClient struct {
	base      string
	hc        *http.Client
	tokens    []string
	templates []string
}

func newHTTPClient(addr string, orgs, conns int) (*httpClient, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	c := &httpClient{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
	for i := 0; i < orgs; i++ {
		req, err := http.NewRequest(http.MethodPost, c.base+"/api/sessions", nil)
		if err != nil {
			return nil, err
		}
		req.SetBasicAuth(fmt.Sprintf("bench@org%d", i), "bench")
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("create session: status %d", resp.StatusCode)
		}
		c.tokens = append(c.tokens, resp.Header.Get(api.AuthHeader))
	}
	var vdc api.VDCJSON
	if err := c.do(http.MethodGet, "/api/vdc/provider-vdc", 0, nil, http.StatusOK, &vdc); err != nil {
		return nil, err
	}
	for _, t := range vdc.Templates {
		c.templates = append(c.templates, t.Name)
	}
	if len(c.templates) == 0 {
		return nil, errors.New("served catalog is empty")
	}
	return c, nil
}

// do sends one request as org's session and decodes a want-status reply
// into out (when non-nil).
func (c *httpClient) do(method, path string, org int, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set(api.AuthHeader, c.tokens[org])
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (c *httpClient) instantiate(org, tpl int) (int64, error) {
	var t api.TaskJSON
	err := c.do(http.MethodPost, "/api/vdc/provider-vdc/action/instantiateVAppTemplate", org,
		api.InstantiateJSON{Template: c.templates[tpl], VMs: 1}, http.StatusAccepted, &t)
	return t.ID, err
}

func (c *httpClient) poll(org int, task int64) (taskState, int64, error) {
	var t api.TaskJSON
	if err := c.do(http.MethodGet, fmt.Sprintf("/api/task/%d", task), org, nil, http.StatusOK, &t); err != nil {
		return taskPending, 0, err
	}
	switch core.TaskState(t.Status) {
	case core.TaskSuccess:
		return taskSucceeded, t.VAppID, nil
	case core.TaskError:
		return taskFailed, 0, nil
	}
	return taskPending, 0, nil
}

func (c *httpClient) remove(org int, vapp int64) (int64, error) {
	var t api.TaskJSON
	err := c.do(http.MethodDelete, fmt.Sprintf("/api/vApp/%d", vapp), org, nil, http.StatusAccepted, &t)
	return t.ID, err
}

func (c *httpClient) read(org int) error {
	var o api.OrgJSON
	if err := c.do(http.MethodGet, fmt.Sprintf("/api/org/org%d", org), org, nil, http.StatusOK, &o); err != nil {
		return err
	}
	if o.Name != fmt.Sprintf("org%d", org) {
		return fmt.Errorf("org read returned %q for org%d", o.Name, org)
	}
	return nil
}
