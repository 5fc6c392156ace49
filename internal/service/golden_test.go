package service

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-error files")

// goldenCompare asserts body matches testdata/golden/<name>.json byte
// for byte, rewriting the file under -update. Shared by the error-path
// and stream-frame golden tests so every pinned wire shape lives in one
// directory under one update flag.
func goldenCompare(t *testing.T, name, body string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if body != string(want) {
		t.Errorf("wire shape drifted from golden file %s:\ngot:  %swant: %s", path, body, want)
	}
}

// TestErrorWireGolden pins the exact JSON body and status of every
// error path a pakd client can hit, one golden file per path. The wire
// shape is API: a renamed field, a reworded message or a drifted status
// would break clients silently, so any diff here must be a deliberate,
// reviewed change (run with -update to accept one).
//
// Determinism: every provoked error message is a pure function of the
// request and the server's fixed configuration — registry names are
// sorted, caps are set explicitly, and the timeout message names the
// configured budget rather than measured time.
func TestErrorWireGolden(t *testing.T) {
	// Small explicit caps so the over-cap messages are stable.
	srv := New(nil, WithMaxQueries(3), WithMaxSystems(2), WithMaxBodyBytes(2048))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The timeout server: a deadline that has always already expired,
	// so the 504 path is deterministic.
	timeoutSrv := New(nil, WithRequestTimeout(time.Nanosecond))
	timeoutTS := httptest.NewServer(timeoutSrv.Handler())
	t.Cleanup(timeoutTS.Close)

	batch4 := `[{"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"},
	            {"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"},
	            {"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"},
	            {"kind":"constraint","fact":{"op":"does","agent":"General","action":"fire"},"agent":"General","action":"fire"}]`

	cases := []struct {
		name   string // golden file stem
		server *httptest.Server
		method string
		path   string
		body   string
		status int
	}{
		{"method-not-allowed-eval", ts, http.MethodGet, "/v1/eval", "", http.StatusMethodNotAllowed},
		{"method-not-allowed-stream", ts, http.MethodGet, "/v1/eval/stream", "", http.StatusMethodNotAllowed},
		{"method-not-allowed-stats", ts, http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed},
		{"method-not-allowed-scenarios", ts, http.MethodPost, "/v1/scenarios", "{}", http.StatusMethodNotAllowed},
		{"malformed-body", ts, http.MethodPost, "/v1/eval", `{"systems": [`, http.StatusBadRequest},
		{"unknown-field", ts, http.MethodPost, "/v1/eval", `{"bogus": 1}`, http.StatusBadRequest},
		{"trailing-content", ts, http.MethodPost, "/v1/eval", `{"systems":["fsquad"],"queries":[]} extra`, http.StatusBadRequest},
		{"empty-request", ts, http.MethodPost, "/v1/eval", `{}`, http.StatusBadRequest},
		{"no-queries", ts, http.MethodPost, "/v1/eval", `{"systems": ["nsquad(2)"]}`, http.StatusBadRequest},
		{"unknown-scenario", ts, http.MethodPost, "/v1/eval", `{"systems": ["nosuch"], "queries": []}`, http.StatusNotFound},
		{"bad-params", ts, http.MethodPost, "/v1/eval", `{"systems": ["nsquad(n=zero)"], "queries": []}`, http.StatusBadRequest},
		{"undeclared-param", ts, http.MethodPost, "/v1/eval", `{"systems": ["fsquad(frobnicate=1)"], "queries": []}`, http.StatusBadRequest},
		{"out-of-range-param", ts, http.MethodPost, "/v1/eval", `{"systems": ["nsquad(42)"], "queries": []}`, http.StatusBadRequest},
		{"serve-guard", ts, http.MethodPost, "/v1/eval", `{"systems": ["random(depth=50000,branch=1)"], "queries": []}`, http.StatusBadRequest},
		{"oversized-value", ts, http.MethodPost, "/v1/eval",
			fmt.Sprintf(`{"systems": ["fsquad(loss=0.%s)"], "queries": []}`, strings.Repeat("1", 80)), http.StatusBadRequest},
		{"bad-batch", ts, http.MethodPost, "/v1/eval", `{"systems": ["nsquad(2)"], "queries": [{"kind": "nope"}]}`, http.StatusBadRequest},
		{"batch-not-array", ts, http.MethodPost, "/v1/eval", `{"systems": ["nsquad(2)"], "queries": {"kind": "belief"}}`, http.StatusBadRequest},
		{"over-query-cap", ts, http.MethodPost, "/v1/eval",
			fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, batch4), http.StatusBadRequest},
		{"over-systems-cap", ts, http.MethodPost, "/v1/eval",
			`{"systems": ["nsquad(2)", "nsquad(3)", "nsquad(4)"], "queries": []}`, http.StatusBadRequest},
		{"oversized-body", ts, http.MethodPost, "/v1/eval",
			fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": [%s]}`, strings.Repeat(" ", 2100)), http.StatusRequestEntityTooLarge},
		{"scenario-not-found", ts, http.MethodGet, "/v1/scenarios/nosuch", "", http.StatusNotFound},
		{"timeout-504", timeoutTS, http.MethodPost, "/v1/eval",
			`{"systems": ["nsquad(2)"], "queries": []}`, http.StatusGatewayTimeout},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				resp *http.Response
				err  error
			)
			switch tc.method {
			case http.MethodGet:
				resp, err = http.Get(tc.server.URL + tc.path)
			default:
				resp, err = http.Post(tc.server.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			checkAllow(t, resp, tc.method)

			goldenCompare(t, tc.name, body)
		})
	}
}

// checkAllow asserts that a 405 names the route's one method in its
// Allow header (RFC 9110 §15.5.6). Every route serves exactly one of
// GET and POST, so a 405 provoked with one must allow the other.
func checkAllow(t *testing.T, resp *http.Response, sent string) {
	t.Helper()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		return
	}
	want := http.MethodPost
	if sent != http.MethodGet {
		want = http.MethodGet
	}
	if got := resp.Header.Get("Allow"); got != want {
		t.Errorf("405 Allow header = %q, want %q", got, want)
	}
}

// TestEvalBackendRemoved pins what a request carrying a "backend"
// field gets: the decoder's standard unknown-field 400, one golden body
// shared by /v1/eval and /v1/eval/stream (the stream fails before any
// frame, so it answers with the same JSON error).
func TestEvalBackendRemoved(t *testing.T) {
	ts := newTestServer(t)
	body := `{"systems": ["nsquad(2)"], "queries": [], "backend": "lp"}`
	resp, data := postEval(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "backend-removed", string(data))

	sresp, sdata := postStream(t, ts, body)
	if sresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream status %d, want 400: %s", sresp.StatusCode, sdata)
	}
	if sdata != string(data) {
		t.Errorf("stream error body differs from buffered:\nstream:   %s\nbuffered: %s", sdata, data)
	}
}
