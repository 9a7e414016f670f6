package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzInstantiateBody posts arbitrary bytes as the instantiate body to a
// server over a free-running driver. Every answer is 202 or 400, nothing
// panics, and the server still answers a stats read afterwards.
func FuzzInstantiateBody(f *testing.F) {
	for _, seed := range []string{
		`{"template": "tpl00", "vms": 2, "powerOn": true}`,
		`{"template": "tpl00", "vms": 4611686018427387904}`,
		`{"template": "tpl00", "vms": -3}`,
		`{"template": "no-such-template"}`,
		`{"template": "tpl00", "vms": `,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	serve, tok := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(httptest.NewRequest("POST", "/api/vdc/provider-vdc/action/instantiateVAppTemplate", bytes.NewReader(body)), tok)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 202 or 400: %s", body, rec.Code, rec.Body)
		}
		if rec := serve(httptest.NewRequest("GET", "/api/admin/stats", nil), tok); rec.Code != http.StatusOK {
			t.Fatalf("stats after body %q: status %d", body, rec.Code)
		}
	})
}

// fuzzServer starts a server over a free-running driver and logs in.
// It returns the session token and a helper that serves one request,
// with the token when one is given.
func fuzzServer(f *testing.F) (serve func(req *http.Request, token string) *httptest.ResponseRecorder, tok string) {
	st := startServer(f, 1)
	serve = func(req *http.Request, token string) *httptest.ResponseRecorder {
		if token != "" {
			req.Header.Set(AuthHeader, token)
		}
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		return rec
	}
	login := httptest.NewRequest("POST", "/api/sessions", nil)
	login.SetBasicAuth("fuzz@org0", "secret")
	rec := serve(login, "")
	tok = rec.Header().Get(AuthHeader)
	if rec.Code != http.StatusCreated || tok == "" {
		f.Fatalf("login: status %d", rec.Code)
	}
	return serve, tok
}

// FuzzRESTPaths sends arbitrary path segments, escaped as a client
// would, to every route that takes one: the id of GET and DELETE
// /api/vApp/{id}, the id and action of POST
// /api/vApp/{id}/power/action/{op}, and the id of GET /api/task/{id}.
// It also logs in as an arbitrary Basic-auth user through POST
// /api/sessions. No answer is a server error, nothing panics, and the
// server still answers a stats read afterwards.
func FuzzRESTPaths(f *testing.F) {
	for _, seed := range [][3]string{
		{"1", "powerOn", "fuzz@org0"},
		{"2", "powerOff", "fuzz@org1"},
		{"45", "powerOn", "fuzz@org0"},
		{"-1", "reboot", "fuzz@"},
		{"0", "", "@org0"},
		{"9223372036854775808", "../powerOn", "a@b@org0"},
		{"..", "%zz", "no-org"},
		{"", "powerOn", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	serve, tok := fuzzServer(f)
	f.Fuzz(func(t *testing.T, id, op, user string) {
		vapp := "/api/vApp/" + url.PathEscape(id)
		for _, r := range []struct{ method, path string }{
			{"GET", vapp},
			{"POST", vapp + "/power/action/" + url.PathEscape(op)},
			{"DELETE", vapp},
			{"GET", "/api/task/" + url.PathEscape(id)},
		} {
			if rec := serve(httptest.NewRequest(r.method, r.path, nil), tok); rec.Code >= 500 {
				t.Fatalf("%s %s: status %d: %s", r.method, r.path, rec.Code, rec.Body)
			}
		}
		login := httptest.NewRequest("POST", "/api/sessions", nil)
		login.SetBasicAuth(user, "secret")
		rec := serve(login, "")
		if rec.Code >= 500 {
			t.Fatalf("login as %q: status %d: %s", user, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusCreated { // keep the session table small
			serve(httptest.NewRequest("DELETE", "/api/sessions", nil), rec.Header().Get(AuthHeader))
		}
		if rec := serve(httptest.NewRequest("GET", "/api/admin/stats", nil), tok); rec.Code != http.StatusOK {
			t.Fatalf("stats after id %q, op %q, user %q: status %d", id, op, user, rec.Code)
		}
	})
}
