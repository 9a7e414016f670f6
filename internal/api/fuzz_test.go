package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
	st := startServer(f, 1)
	serve := func(method, path, token string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if token != "" {
			req.Header.Set(AuthHeader, token)
		}
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		return rec
	}
	login := httptest.NewRequest("POST", "/api/sessions", nil)
	login.SetBasicAuth("fuzz@org0", "secret")
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, login)
	tok := rec.Header().Get(AuthHeader)
	if rec.Code != http.StatusCreated || tok == "" {
		f.Fatalf("login: status %d", rec.Code)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve("POST", "/api/vdc/provider-vdc/action/instantiateVAppTemplate", tok, body)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 202 or 400: %s", body, rec.Code, rec.Body)
		}
		if rec := serve("GET", "/api/admin/stats", tok, nil); rec.Code != http.StatusOK {
			t.Fatalf("stats after body %q: status %d", body, rec.Code)
		}
	})
}
