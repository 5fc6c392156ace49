package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pak/internal/logic"
	"pak/internal/pps"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/scenarios"
)

// decodedStream is one parsed /v1/eval/stream response.
type decodedStream struct {
	results  []StreamResultFrame
	terminal StreamStatusFrame
}

// parseStream decodes an NDJSON body, asserting the framing contract:
// every line is a frame, result frames only before the terminal frame,
// exactly one terminal frame, in final position.
func parseStream(t *testing.T, body string) decodedStream {
	t.Helper()
	var out decodedStream
	seenTerminal := false
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if seenTerminal {
			t.Fatalf("line %d: frame after the terminal status frame: %s", ln, line)
		}
		var probe struct {
			Frame string `json:"frame"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("line %d is not a JSON frame: %v (%s)", ln, err, line)
		}
		switch probe.Frame {
		case frameResult:
			var f StreamResultFrame
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				t.Fatalf("line %d: bad result frame: %v", ln, err)
			}
			out.results = append(out.results, f)
		case frameStatus:
			if err := json.Unmarshal([]byte(line), &out.terminal); err != nil {
				t.Fatalf("line %d: bad status frame: %v", ln, err)
			}
			seenTerminal = true
		default:
			t.Fatalf("line %d: unknown frame kind %q", ln, probe.Frame)
		}
	}
	if !seenTerminal {
		t.Fatal("stream ended without a terminal status frame")
	}
	return out
}

func postStream(t *testing.T, ts *httptest.Server, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/eval/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/eval/stream: %v", err)
	}
	return resp, readAll(t, resp)
}

// compactDoc renders a ResultDoc in the stream's compact wire form.
func compactDoc(t *testing.T, doc query.ResultDoc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEvalStreamMatchesBuffered: every streamed result frame is
// byte-identical (in wire form) to the buffered /v1/eval response's
// entry at the same [system][index], the emitted coordinates cover every
// slot exactly once, and the terminal frame reports completion. Frame
// order is asserted only where stream.go promises it: evaluated frames
// arrive in completion order across all systems, so only serial
// parallelism streams in request order.
func TestEvalStreamMatchesBuffered(t *testing.T) {
	ts := newTestServer(t)
	batch := squadBatch(t)
	for _, parallelism := range []int{0, 1} {
		// Parallelism 0 is the server default.
		body := fmt.Sprintf(`{"systems": ["nsquad(2)", "nsquad(n=3)"], "queries": %s, "parallelism": %d}`, batch, parallelism)
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			checkStreamMatchesBuffered(t, ts, body, parallelism == 1)
		})
	}
}

func checkStreamMatchesBuffered(t *testing.T, ts *httptest.Server, body string, serial bool) {
	buffResp, buffData := postEval(t, ts, body)
	if buffResp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", buffResp.StatusCode, buffData)
	}
	var buffered EvalResponse
	if err := json.Unmarshal(buffData, &buffered); err != nil {
		t.Fatal(err)
	}

	resp, data := postStream(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeNDJSON {
		t.Errorf("Content-Type = %q, want %q", ct, contentTypeNDJSON)
	}
	stream := parseStream(t, data)

	total := 0
	for _, sr := range buffered.Results {
		total += len(sr.Results)
	}
	if len(stream.results) != total {
		t.Fatalf("stream emitted %d result frames, want %d", len(stream.results), total)
	}
	seen := make(map[[2]int]bool)
	last := [2]int{-1, -1}
	for _, f := range stream.results {
		key := [2]int{f.System, f.Index}
		if serial && (key[0] < last[0] || key[0] == last[0] && key[1] < last[1]) {
			t.Errorf("serial stream out of request order: slot %v after %v", key, last)
		}
		last = key
		if seen[key] {
			t.Errorf("slot %v emitted twice", key)
		}
		seen[key] = true
		if f.System < 0 || f.System >= len(buffered.Results) {
			t.Fatalf("frame names system %d of %d", f.System, len(buffered.Results))
		}
		sr := buffered.Results[f.System]
		if f.Index < 0 || f.Index >= len(sr.Results) {
			t.Fatalf("frame names slot %v outside the batch", key)
		}
		if f.Spec != sr.System || f.Canonical != sr.Canonical {
			t.Errorf("frame %v names (%q, %q), want (%q, %q)", key, f.Spec, f.Canonical, sr.System, sr.Canonical)
		}
		if got, want := compactDoc(t, f.Result), compactDoc(t, sr.Results[f.Index]); got != want {
			t.Errorf("slot %v differs from the buffered response:\nstream:   %s\nbuffered: %s", key, got, want)
		}
	}
	for i, sr := range buffered.Results {
		for j := range sr.Results {
			if !seen[[2]int{i, j}] {
				t.Errorf("slot [%d][%d] never streamed", i, j)
			}
		}
	}
	if stream.terminal.Status != string(query.StreamComplete) || stream.terminal.Error != "" {
		t.Errorf("terminal = %+v, want complete with no error", stream.terminal)
	}
}

// TestEvalStreamGoldenComplete pins the full NDJSON body of a serial
// (deterministic frame order) streaming evaluation: the result-frame
// and complete-terminal wire shapes.
func TestEvalStreamGoldenComplete(t *testing.T) {
	ts := newTestServer(t)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire},
		query.ExpectationQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire},
	)
	resp, data := postStream(t, ts,
		fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s, "parallelism": 1}`, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "stream-complete", data)
}

// TestEvalStreamGoldenDeadline pins the deadline wire shapes: with an
// already-expired request budget every slot streams a per-slot deadline
// error frame and the terminal frame carries the deterministic timeout
// message — HTTP 200, because the finished-prefix contract holds even
// when the prefix is empty.
func TestEvalStreamGoldenDeadline(t *testing.T) {
	ts := newTestServer(t, WithRequestTimeout(time.Nanosecond))
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire})
	resp, data := postStream(t, ts,
		fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s, "parallelism": 1}`, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	stream := parseStream(t, data)
	if stream.terminal.Status != string(query.StreamDeadline) {
		t.Fatalf("terminal = %+v, want deadline", stream.terminal)
	}
	goldenCompare(t, "stream-deadline", data)
}

// TestEvalStreamGoldenCancelled pins the cancelled terminal shape by
// serving a request whose context is already cancelled (the
// ResponseRecorder stands in for a client that went away but whose
// stream we can still read).
func TestEvalStreamGoldenCancelled(t *testing.T) {
	srv := New(nil)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire})
	body := fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s, "parallelism": 1}`, batch)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/eval/stream", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	stream := parseStream(t, rec.Body.String())
	if stream.terminal.Status != string(query.StreamCancelled) {
		t.Fatalf("terminal = %+v, want cancelled", stream.terminal)
	}
	goldenCompare(t, "stream-cancelled", rec.Body.String())
}

// boomRegistry is a registry with one working and one unbuildable
// scenario, for the mid-stream failure path.
func boomRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if err := reg.Register(registry.Scenario{
		Name: "good",
		Doc:  "a working test scenario",
		Build: func(registry.Args) (*pps.System, error) {
			return scenarios.NFiringSquadSystem(2, ratutil.R(1, 10), false)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(registry.Scenario{
		Name: "boom",
		Doc:  "a test scenario whose build always fails",
		Build: func(registry.Args) (*pps.System, error) {
			return nil, fmt.Errorf("the unfold blew up")
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestEvalStreamMidStreamBuildFailure forces an engine failure after
// streaming has begun: system "good" streams its frames, then system
// "boom"'s build fails. The status line is already spent, so the
// failure must arrive as the terminal "error" frame on the open 200
// stream — never a second status line (which net/http would drop with
// a superfluous-WriteHeader log, leaving the client a truncated stream
// with no explanation).
func TestEvalStreamMidStreamBuildFailure(t *testing.T) {
	ts := httptest.NewServer(New(boomRegistry(t)).Handler())
	t.Cleanup(ts.Close)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire})

	resp, data := postStream(t, ts,
		fmt.Sprintf(`{"systems": ["good", "boom"], "queries": %s, "parallelism": 1}`, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with a terminal error frame (%s)", resp.StatusCode, data)
	}
	stream := parseStream(t, data)
	if len(stream.results) != 1 {
		t.Fatalf("got %d result frames before the failure, want 1 (%s)", len(stream.results), data)
	}
	if f := stream.results[0]; f.Spec != "good" || f.Result.Error != "" {
		t.Errorf("good system's frame = %+v, want a clean result", f)
	}
	term := stream.terminal
	if term.Status != streamStatusError || term.Code != http.StatusBadRequest ||
		!strings.Contains(term.Error, "the unfold blew up") {
		t.Errorf("terminal = %+v, want an error frame with code 400 naming the build failure", term)
	}
	goldenCompare(t, "stream-error", data)
}

// TestEvalBufferedBuildFailure pins the buffered side of a genuine
// engine build failure: /v1/eval answers a request-level 400 errorDoc
// naming the builder's error, and with several failing systems it names
// the FIRST failing system in target order, whatever order the builds
// fail in. The later target here fails at once while the earlier one
// fails only after a pause, so a buffered path that reported the first
// failure to arrive would name the wrong one.
func TestEvalBufferedBuildFailure(t *testing.T) {
	reg := boomRegistry(t)
	if err := reg.Register(registry.Scenario{
		Name: "slowboom",
		Doc:  "a test scenario whose build fails after a pause",
		Build: func(registry.Args) (*pps.System, error) {
			time.Sleep(5 * time.Millisecond)
			return nil, fmt.Errorf("the slow unfold blew up")
		},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire})

	errorOf := func(body string) string {
		t.Helper()
		resp, data := postEval(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
		}
		var ed errorDoc
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ed); err != nil || ed.Error == "" {
			t.Fatalf("body is not a JSON error doc: %s", data)
		}
		return ed.Error
	}

	if msg := errorOf(fmt.Sprintf(`{"systems": ["good", "boom"], "queries": %s}`, batch)); !strings.Contains(msg, "the unfold blew up") {
		t.Errorf("error = %q, want it to name the build failure", msg)
	}
	body := fmt.Sprintf(`{"systems": ["good", "slowboom", "boom"], "queries": %s, "parallelism": 4}`, batch)
	for rep := 0; rep < 20; rep++ {
		if msg := errorOf(body); !strings.Contains(msg, "the slow unfold blew up") {
			t.Fatalf("repeat %d: error = %q, want the first failing system in target order (slowboom)", rep, msg)
		}
	}
}

// TestEvalStreamPreStreamFailuresKeepStatusLine: request-level failures
// before any frame is flushed must stay ordinary JSON errors with real
// HTTP statuses — the stream handler shares the buffered path's error
// vocabulary until the first frame commits the 200.
func TestEvalStreamPreStreamFailuresKeepStatusLine(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed body", `{"systems": [`, http.StatusBadRequest},
		{"unknown scenario", `{"systems": ["nosuch"], "queries": []}`, http.StatusNotFound},
		{"empty request", `{}`, http.StatusBadRequest},
		{"cold build failure before any frame", `{"systems": ["random(agents=0)"], "queries": []}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postStream(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var ed errorDoc
		if err := json.Unmarshal([]byte(data), &ed); err != nil || ed.Error == "" {
			t.Errorf("%s: body is not a JSON error doc: %s", tc.name, data)
		}
	}
}

// mustBatch marshals queries into the wire batch format.
func mustBatch(t *testing.T, qs ...query.Query) []byte {
	t.Helper()
	doc, err := query.MarshalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestEvalTimeoutReturnsFinishedPrefix is the acceptance test for the
// buffered path's deadline fix: the same batch evaluates with and
// without a deadline, and every slot the deadlined run finished must be
// byte-identical to its untimed value, with every unfinished slot
// carrying a per-slot deadline error and the response carrying the
// top-level timeout marker on a 504. The batch is large enough that
// the budget cannot finish it, and the first slots cheap enough that
// some always do — but the assertions themselves only rely on the
// dichotomy, so scheduling noise cannot flake the test.
func TestEvalTimeoutReturnsFinishedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("timed prefix test in -short")
	}
	// 1000 queries over nsquad(6), each slot's fact carrying a distinct
	// never-matching conjunct so the engine's per-fact memo cannot
	// collapse the batch into a handful of evaluations — each slot pays
	// a full acting-runs scan. The timed budget is derived from the
	// measured untimed run (a tenth of it) rather than hard-coded:
	// evaluation dominates that run by two orders of magnitude over
	// batch decoding, so a tenth always admits roughly a hundred slots
	// and truncates the rest, under any uniform slowdown (-race, a
	// loaded CI machine). Scans abort cooperatively at the deadline, so
	// a slot in flight when it fires no longer completes on borrowed
	// time. The assertions only rely on the finished/unfinished
	// dichotomy, so scheduling noise cannot flake the byte-identity
	// check.
	var qs []query.Query
	for i := 0; i < 1000; i++ {
		fact := logic.And(scenarios.AllFireFact(6),
			logic.Not(logic.LocalContains(scenarios.General, fmt.Sprintf("#never-%d#", i))))
		qs = append(qs, query.ConstraintQuery{Fact: fact, Agent: scenarios.General, Action: scenarios.ActFire})
	}
	batch, err := query.MarshalBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"systems": ["nsquad(6)"], "queries": %s, "parallelism": 1}`, batch)

	untimedTS := newTestServer(t)
	untimedStart := time.Now()
	untimedResp, untimedData := postEval(t, untimedTS, body)
	untimedDur := time.Since(untimedStart)
	if untimedResp.StatusCode != http.StatusOK {
		t.Fatalf("untimed status %d", untimedResp.StatusCode)
	}
	var untimed EvalResponse
	if err := json.Unmarshal(untimedData, &untimed); err != nil {
		t.Fatal(err)
	}

	// Warm the engine first (in-flight builds complete and stay cached
	// even past a deadline), so the timed request spends its whole
	// budget evaluating rather than unfolding.
	timedTS := newTestServer(t, WithRequestTimeout(untimedDur/10))
	warmResp, _ := postEval(t, timedTS, `{"systems": ["nsquad(6)"], "queries": []}`)
	warmResp.Body.Close()

	timedResp, timedData := postEval(t, timedTS, body)
	if timedResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed status %d, want 504 — the batch finished inside the budget; grow it", timedResp.StatusCode)
	}
	var timed EvalResponse
	if err := json.Unmarshal(timedData, &timed); err != nil {
		t.Fatal(err)
	}
	if timed.Status != string(query.StreamDeadline) || !strings.Contains(timed.Error, "deadline exceeded") {
		t.Errorf("timeout marker = (%q, %q), want deadline status with a deadline message", timed.Status, timed.Error)
	}
	if len(timed.Results) != 1 || len(timed.Results[0].Results) != len(qs) {
		t.Fatalf("timed response lost its shape: %d systems", len(timed.Results))
	}

	finished, unfinished := 0, 0
	for j, doc := range timed.Results[0].Results {
		if doc.Error != "" {
			unfinished++
			if !strings.Contains(doc.Error, "context deadline exceeded") {
				t.Errorf("slot %d: unfinished error %q does not name the deadline", j, doc.Error)
			}
			continue
		}
		finished++
		if got, want := compactDoc(t, doc), compactDoc(t, untimed.Results[0].Results[j]); got != want {
			t.Errorf("finished slot %d not byte-identical to its untimed value:\ntimed:   %s\nuntimed: %s", j, got, want)
		}
	}
	if finished == 0 {
		t.Error("deadlined run finished no slot at all; the prefix contract was not exercised")
	}
	if unfinished == 0 {
		t.Error("deadlined run finished every slot; the truncation path was not exercised")
	}
	t.Logf("prefix: %d finished, %d unfinished", finished, unfinished)
}

// TestStatsEndpoint: /v1/stats reports the engine cache's counters, and
// its wire shape is golden-pinned after a deterministic priming
// sequence (one miss, two hits on the same canonical spec).
func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: scenarios.AllFireFact(2), Agent: scenarios.General, Action: scenarios.ActFire})
	for i := 0; i < 2; i++ {
		resp, data := postEval(t, ts, fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prime %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	trueBatch := mustBatch(t,
		query.ConstraintQuery{Fact: logic.True(), Agent: scenarios.General, Action: scenarios.ActFire})
	resp0, data := postEval(t, ts, fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s}`, trueBatch))
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("third prime: status %d: %s", resp0.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var out StatsResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if out.EngineCache.Len != 1 || out.EngineCache.Hits != 2 || out.EngineCache.Misses != 1 {
		t.Errorf("stats after priming = %+v, want len=1 hits=2 misses=1", out.EngineCache)
	}
	goldenCompare(t, "stats", body)
}
