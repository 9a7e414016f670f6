package api

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/inventory"
)

// AuthHeader carries the session token, named as vCloud Director names
// it.
const AuthHeader = "x-vcloud-authorization"

// session is one authenticated client.
type session struct {
	token    string
	user     string
	org      string
	created  time.Time
	lastSeen time.Time
}

// DefaultSessionTTL is the idle timeout after which a session is
// evicted. VCD expires idle sessions the same way; without a TTL the
// session map grows by one entry per login forever — load generators
// that log in per connection leak the server's memory.
const DefaultSessionTTL = 30 * time.Minute

// Server is the VCD-style REST surface over a serving façade. It is an
// http.Handler; every goroutine-safety concern below it is owned by
// core.Frontend and the paced driver.
type Server struct {
	fe  *core.Frontend
	mux *http.ServeMux

	mu        sync.Mutex
	sessions  map[string]*session
	ttl       time.Duration
	lastSweep time.Time
	now       func() time.Time // injectable clock for the eviction tests
}

// NewServer builds the handler tree over fe.
func NewServer(fe *core.Frontend) *Server {
	s := &Server{fe: fe, sessions: make(map[string]*session), ttl: DefaultSessionTTL, now: time.Now}
	m := http.NewServeMux()
	m.HandleFunc("POST /api/sessions", s.createSession)
	m.HandleFunc("DELETE /api/sessions", s.auth(s.deleteSession))
	m.HandleFunc("GET /api/session", s.auth(s.getSession))
	m.HandleFunc("GET /api/org", s.auth(s.listOrgs))
	m.HandleFunc("GET /api/org/{name}", s.auth(s.getOrg))
	m.HandleFunc("GET /api/vdc/{name}", s.auth(s.getVDC))
	m.HandleFunc("POST /api/vdc/{name}/action/instantiateVAppTemplate", s.auth(s.instantiate))
	m.HandleFunc("GET /api/vApp/{id}", s.auth(s.getVApp))
	m.HandleFunc("POST /api/vApp/{id}/power/action/{op}", s.auth(s.powerVApp))
	m.HandleFunc("DELETE /api/vApp/{id}", s.auth(s.deleteVApp))
	m.HandleFunc("GET /api/task/{id}", s.auth(s.getTask))
	m.HandleFunc("GET /api/admin/stats", s.auth(s.adminStats))
	s.mux = m
	return s
}

// ServeHTTP dispatches to the handler tree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetSessionTTL changes the idle timeout; d <= 0 disables eviction
// (sessions then live until explicitly deleted). Safe to call any time.
func (s *Server) SetSessionTTL(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ttl = d
}

// Sessions returns the live session count, after reaping idle sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(s.now())
	return len(s.sessions)
}

// sweepLocked evicts sessions idle past the TTL. It runs lazily under
// the existing mutex — no background goroutine to leak or to race with
// shutdown — and self-throttles to at most one full scan per quarter
// TTL, so the common path stays one time comparison.
func (s *Server) sweepLocked(now time.Time) {
	if s.ttl <= 0 || now.Sub(s.lastSweep) < s.ttl/4 {
		return
	}
	s.lastSweep = now
	for tok, sess := range s.sessions {
		if now.Sub(sess.lastSeen) > s.ttl {
			delete(s.sessions, tok)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorJSON{Status: status, Message: fmt.Sprintf(format, args...)})
}

// auth wraps a handler with token lookup; the session rides in the
// request context-free way VCD clients expect — resolved per call.
func (s *Server) auth(fn func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok := r.Header.Get(AuthHeader)
		now := s.now()
		s.mu.Lock()
		s.sweepLocked(now)
		sess := s.sessions[tok]
		if sess != nil && s.ttl > 0 && now.Sub(sess.lastSeen) > s.ttl {
			// Expired but not yet swept: treat exactly like a swept one.
			delete(s.sessions, tok)
			sess = nil
		}
		if sess != nil {
			sess.lastSeen = now
		}
		s.mu.Unlock()
		if sess == nil {
			writeError(w, http.StatusUnauthorized, "missing or invalid %s token", AuthHeader)
			return
		}
		fn(w, r, sess)
	}
}

// createSession authenticates basic credentials of the VCD form
// user@org (any password — the simulation has no secrets) and returns
// the session token in the auth header.
func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	user, _, ok := r.BasicAuth()
	if !ok {
		writeError(w, http.StatusUnauthorized, "basic auth user@org required")
		return
	}
	at := strings.LastIndex(user, "@")
	if at <= 0 || at == len(user)-1 {
		writeError(w, http.StatusUnauthorized, "user must be of the form user@org")
		return
	}
	name, org := user[:at], user[at+1:]
	if !s.fe.KnownOrg(org) {
		writeError(w, http.StatusForbidden, "unknown org %q", org)
		return
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		writeError(w, http.StatusInternalServerError, "token generation: %v", err)
		return
	}
	now := s.now()
	sess := &session{token: hex.EncodeToString(raw[:]), user: name, org: org, created: now, lastSeen: now}
	s.mu.Lock()
	s.sweepLocked(now)
	s.sessions[sess.token] = sess
	s.mu.Unlock()
	w.Header().Set(AuthHeader, sess.token)
	writeJSON(w, http.StatusCreated, SessionJSON{
		User: sess.user, Org: sess.org, Href: "/api/session", Token: sess.token,
	})
}

func (s *Server) deleteSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.token)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) getSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, SessionJSON{User: sess.user, Org: sess.org, Href: "/api/session"})
}

// listOrgs shows only the session's org — tenancy isolation, as VCD
// scopes org listings to the authenticated organization.
func (s *Server) listOrgs(w http.ResponseWriter, _ *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, []OrgRefJSON{{Name: sess.org, Href: orgHref(sess.org)}})
}

func (s *Server) getOrg(w http.ResponseWriter, r *http.Request, sess *session) {
	name := r.PathValue("name")
	if name != sess.org {
		writeError(w, http.StatusForbidden, "org %q not visible to this session", name)
		return
	}
	view, ok := s.fe.OrgView(name)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server stopping")
		return
	}
	out := OrgJSON{Name: view.Name, QuotaVMs: view.QuotaVMs, LiveVMs: view.LiveVMs, VDCHref: vdcHref()}
	for _, va := range view.VApps {
		out.VApps = append(out.VApps, vappJSON(va))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getVDC(w http.ResponseWriter, r *http.Request, _ *session) {
	if r.PathValue("name") != "provider-vdc" {
		writeError(w, http.StatusNotFound, "no such vDC %q", r.PathValue("name"))
		return
	}
	pv, ok := s.fe.Provider()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server stopping")
		return
	}
	writeJSON(w, http.StatusOK, vdcJSON(pv))
}

// instantiate is the deploy verb: 202 Accepted with the async task.
func (s *Server) instantiate(w http.ResponseWriter, r *http.Request, sess *session) {
	if r.PathValue("name") != "provider-vdc" {
		writeError(w, http.StatusNotFound, "no such vDC %q", r.PathValue("name"))
		return
	}
	var body InstantiateJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad instantiate body: %v", err)
		return
	}
	id, err := s.fe.SubmitOp(core.OpRequest{
		Kind:     core.OpInstantiate,
		Org:      sess.org,
		Template: body.Template,
		VMs:      body.VMs,
		PowerOn:  body.PowerOn,
	})
	s.acceptTask(w, id, err)
}

func (s *Server) powerVApp(w http.ResponseWriter, r *http.Request, sess *session) {
	vapp, ok := pathID(r, "id")
	if !ok {
		writeError(w, http.StatusBadRequest, "bad vApp id %q", r.PathValue("id"))
		return
	}
	var kind core.OpKind
	switch r.PathValue("op") {
	case "powerOn":
		kind = core.OpPowerOn
	case "powerOff":
		kind = core.OpPowerOff
	default:
		writeError(w, http.StatusNotFound, "unknown power action %q", r.PathValue("op"))
		return
	}
	id, err := s.fe.SubmitOp(core.OpRequest{Kind: kind, Org: sess.org, VApp: vapp})
	s.acceptTask(w, id, err)
}

func (s *Server) deleteVApp(w http.ResponseWriter, r *http.Request, sess *session) {
	vapp, ok := pathID(r, "id")
	if !ok {
		writeError(w, http.StatusBadRequest, "bad vApp id %q", r.PathValue("id"))
		return
	}
	id, err := s.fe.SubmitOp(core.OpRequest{Kind: core.OpDelete, Org: sess.org, VApp: vapp})
	s.acceptTask(w, id, err)
}

// acceptTask turns a SubmitOp result into 202 + task body or an error.
func (s *Server) acceptTask(w http.ResponseWriter, id int64, err error) {
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrStopped) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	ti, ok := s.fe.Task(id)
	if !ok {
		writeError(w, http.StatusInternalServerError, "task %d vanished", id)
		return
	}
	w.Header().Set("Location", taskHref(id))
	writeJSON(w, http.StatusAccepted, taskJSON(ti))
}

func (s *Server) getVApp(w http.ResponseWriter, r *http.Request, sess *session) {
	vapp, ok := pathID(r, "id")
	if !ok {
		writeError(w, http.StatusBadRequest, "bad vApp id %q", r.PathValue("id"))
		return
	}
	view, found := s.fe.VApp(sess.org, vapp)
	if !found {
		writeError(w, http.StatusNotFound, "no vApp %d in org %s", vapp, sess.org)
		return
	}
	writeJSON(w, http.StatusOK, vappJSON(view))
}

func (s *Server) getTask(w http.ResponseWriter, r *http.Request, sess *session) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad task id %q", r.PathValue("id"))
		return
	}
	ti, ok := s.fe.Task(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such task %d", id)
		return
	}
	if ti.Org != sess.org {
		writeError(w, http.StatusForbidden, "task %d not visible to org %s", id, sess.org)
		return
	}
	writeJSON(w, http.StatusOK, taskJSON(ti))
}

func (s *Server) adminStats(w http.ResponseWriter, _ *http.Request, _ *session) {
	st := s.fe.Stats()
	drv := s.fe.Driver()
	writeJSON(w, http.StatusOK, StatsJSON{
		Submitted:      st.Submitted,
		Completed:      st.Completed,
		Failed:         st.Failed,
		InFlight:       st.InFlight,
		QueueWaitSumS:  st.QueueWaitSumS,
		QueueWaitMeanS: st.QueueWaitMeanS,
		VirtualNowS:    float64(s.fe.Clock()),
		PacedRatio:     drv.Ratio(),
		Shards:         s.fe.Cloud().Plane().ShardCount(),
		Sessions:       s.Sessions(),
	})
}

func pathID(r *http.Request, key string) (inventory.ID, bool) {
	v, err := strconv.ParseInt(r.PathValue(key), 10, 64)
	if err != nil || v <= 0 {
		return inventory.None, false
	}
	return inventory.ID(v), true
}
