package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"pak/internal/core"
	"pak/internal/epistemic"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/registry"
	"pak/internal/scenarios"
)

// seededBeliefSpace sweeps nsquad(3) across losses wide enough that the
// General's belief in "all fire" moves across the 1/2 level.
const seededBeliefSpace = "sweep(nsquad, loss=0.1..0.9/0.4, n=3)"

// TestEnvelopeSeededBelievesMatchesFresh pins the seeding soundness line
// for measure-dependent facts: a sweep seeds each assignment's engine
// from its shape-equal neighbour, and a believes fact reads µ_T, so its
// extensions must never cross that seam. Every assignment's answer —
// buffered and streamed — must equal a fresh engine's answer for the
// same system.
func TestEnvelopeSeededBelievesMatchesFresh(t *testing.T) {
	inner := query.ConstraintQuery{
		Fact:  epistemic.Believes(scenarios.General, ratutil.R(1, 2), scenarios.AllFireFact(3)),
		Agent: scenarios.General, Action: scenarios.ActFire,
	}
	doc, err := query.Marshal(inner)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := registry.Default().ResolveSpace(seededBeliefSpace)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, inst := range rs.Instances() {
		sys, err := registry.Default().Build(inst.Canonical)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Eval(core.New(sys), inner)
		if err != nil {
			t.Fatal(err)
		}
		want[inst.Assignment.String()] = compactJSON(t, query.DocOf(res))
	}
	if len(want) != 3 {
		t.Fatalf("space has %d assignments, want 3", len(want))
	}

	ts := newTestServer(t)
	body := fmt.Sprintf(`{"space": %q, "query": %s, "parallelism": 1}`, seededBeliefSpace, doc)

	resp, data := postEnvelope(t, ts, "/v1/envelope", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, data)
	}
	var er EnvelopeResponse
	if err := json.Unmarshal([]byte(data), &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Assignments) != len(want) {
		t.Fatalf("buffered: %d assignments, want %d", len(er.Assignments), len(want))
	}
	for _, ar := range er.Assignments {
		if got := compactJSON(t, ar.Result); got != want[ar.Assignment] {
			t.Errorf("buffered %s: %s, fresh engine %s", ar.Assignment, got, want[ar.Assignment])
		}
	}

	// A second server, so the stream's engines are seeded the same way
	// rather than served from the buffered request's cache.
	ts = newTestServer(t)
	resp, data = postEnvelope(t, ts, "/v1/envelope/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, data)
	}
	st := parseEnvStream(t, data)
	if len(st.results) != len(want) {
		t.Fatalf("stream: %d result frames, want %d", len(st.results), len(want))
	}
	for _, f := range st.results {
		if got := compactJSON(t, f.Result); got != want[f.Assignment] {
			t.Errorf("stream %s: %s, fresh engine %s", f.Assignment, got, want[f.Assignment])
		}
	}
}
