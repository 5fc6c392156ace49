package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"pak/internal/montecarlo"
	"pak/internal/query"
	"pak/internal/ratutil"
	"pak/internal/scenarios"
)

// approxStreamBody is the canonical approx streaming request the wire
// tests share: one system, a mixed batch (three approximable kinds plus
// one pass-through theorem), a fixed seed and budget, serial so the
// frame order is deterministic and golden-pinnable.
func approxStreamBody(t *testing.T, approx string) string {
	t.Helper()
	all := scenarios.AllFireFact(2)
	batch := mustBatch(t,
		query.ConstraintQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
		query.ExpectationQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
		query.ThresholdQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire, P: ratutil.R(1, 2)},
		query.TheoremQuery{Theorem: query.TheoremExpectation, Fact: all,
			Agent: scenarios.General, Action: scenarios.ActFire},
	)
	return fmt.Sprintf(`{"systems": ["nsquad(2)"], "queries": %s, "parallelism": 1, "approx": %s}`,
		batch, approx)
}

// TestApproxEvalGolden pins the buffered /v1/eval body under an approx
// request: every supported slot's refined result carries its estimate
// (exact rationals on the wire) and the ciCovered self-check; the
// theorem slot is untouched. The body is a pure function of the request
// — seeded sampling, integer-arithmetic CI — so the golden holds across
// platforms and reruns.
func TestApproxEvalGolden(t *testing.T) {
	ts := newTestServer(t)
	resp, data := postEval(t, ts, approxStreamBody(t, `{"samples": 64, "seed": 5}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "approx-eval", string(data))

	var er EvalResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	for i, doc := range er.Results[0].Results[:3] {
		if doc.Estimate == nil {
			t.Fatalf("slot %d: no estimate on the wire", i)
		}
		if !doc.Flags[query.FlagCICovered] {
			t.Errorf("slot %d: self-check flag missing or false", i)
		}
		if doc.Estimate.Samples != 64 {
			t.Errorf("slot %d: samples = %d, want 64", i, doc.Estimate.Samples)
		}
	}
	if er.Results[0].Results[3].Estimate != nil {
		t.Error("theorem slot grew an estimate")
	}
}

// TestApproxStreamGolden pins the NDJSON frame shapes of an approx
// stream — per supported slot a stage:"approx" frame strictly before
// its stage:"exact" frame — and asserts the ordering contract on the
// parsed frames.
func TestApproxStreamGolden(t *testing.T) {
	ts := newTestServer(t)
	resp, data := postStream(t, ts, approxStreamBody(t, `{"eps": "1/10", "delta": "1/100", "seed": 11}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "approx-stream", data)

	stream := parseStream(t, data)
	assertApproxBeforeExact(t, stream, 4, []int{0, 1, 2})
	if stream.terminal.Status != string(query.StreamComplete) {
		t.Fatalf("terminal = %+v, want complete", stream.terminal)
	}
}

// assertApproxBeforeExact checks the per-slot stage sequence: every
// approximable slot (by index) emits exactly ["approx", "exact"] in
// that order, every other slot exactly ["exact"].
func assertApproxBeforeExact(t *testing.T, stream decodedStream, slots int, approximable []int) {
	t.Helper()
	canApprox := make(map[int]bool, len(approximable))
	for _, i := range approximable {
		canApprox[i] = true
	}
	stages := make(map[int][]string, slots)
	for _, f := range stream.results {
		stages[f.Index] = append(stages[f.Index], f.Stage)
	}
	for i := 0; i < slots; i++ {
		want := "exact"
		if canApprox[i] {
			want = "approx,exact"
		}
		got := ""
		for j, s := range stages[i] {
			if j > 0 {
				got += ","
			}
			got += s
		}
		if got != want {
			t.Errorf("slot %d: stage sequence %q, want %q", i, got, want)
		}
	}
}

// TestApproxOnlyStreamGolden pins the approx-only shape: one
// stage:"approx" frame per supported slot, no exact refinement, the
// theorem slot still exact.
func TestApproxOnlyStreamGolden(t *testing.T) {
	ts := newTestServer(t)
	resp, data := postStream(t, ts, approxStreamBody(t, `{"samples": 64, "seed": 5, "only": true}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "approx-stream-only", data)

	stream := parseStream(t, data)
	for _, f := range stream.results {
		if f.Index < 3 && f.Stage != "approx" {
			t.Errorf("slot %d: stage %q, want approx (only mode)", f.Index, f.Stage)
		}
		if f.Index == 3 && f.Stage != "exact" {
			t.Errorf("theorem slot: stage %q, want exact", f.Stage)
		}
	}
	if len(stream.results) != 4 {
		t.Fatalf("%d frames, want 4 (no refinement frames in only mode)", len(stream.results))
	}
}

// TestApproxStreamDeterminism is the wire half of the tentpole's
// determinism contract: the same seeded request produces byte-identical
// frames serial, parallel, and on rerun. Parallel completion order may
// interleave differently, so frames are compared per (system, index,
// stage) coordinate; the serial body is additionally order-pinned by
// the golden above.
func TestApproxStreamDeterminism(t *testing.T) {
	ts := newTestServer(t)
	frames := func(parallelism int) map[string]string {
		all := scenarios.AllFireFact(2)
		batch := mustBatch(t,
			query.ConstraintQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
			query.ExpectationQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire},
			query.ThresholdQuery{Fact: all, Agent: scenarios.General, Action: scenarios.ActFire, P: ratutil.R(1, 2)},
		)
		body := fmt.Sprintf(
			`{"systems": ["nsquad(2)", "nsquad(n=3)"], "queries": %s, "parallelism": %d, "approx": {"samples": 128, "seed": 42}}`,
			batch, parallelism)
		resp, data := postStream(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		out := make(map[string]string)
		for _, f := range parseStream(t, data).results {
			key := fmt.Sprintf("%d/%d/%s", f.System, f.Index, f.Stage)
			if _, dup := out[key]; dup {
				t.Fatalf("frame %s emitted twice", key)
			}
			out[key] = compactDoc(t, f.Result)
		}
		return out
	}
	serial := frames(1)
	parallel := frames(8)
	rerun := frames(8)
	if len(serial) != 12 { // 2 systems × (3 approx + 3 exact)
		t.Fatalf("serial emitted %d frames, want 12", len(serial))
	}
	for key, want := range serial {
		if parallel[key] != want {
			t.Errorf("%s: parallel differs from serial:\nserial:   %s\nparallel: %s", key, want, parallel[key])
		}
		if rerun[key] != want {
			t.Errorf("%s: rerun differs", key)
		}
	}
	if len(parallel) != len(serial) || len(rerun) != len(serial) {
		t.Fatalf("frame counts differ: %d serial, %d parallel, %d rerun", len(serial), len(parallel), len(rerun))
	}
}

// TestApproxDeadlineMidRefinement pins the deadline-soundness contract
// on both transports. The test-only refinement gate blocks slot 2
// between its approx emission and its exact refinement until the
// request deadline fires, so the cut point is deterministic and the
// 504/deadline bodies show the full contract at once (serial order):
//
//   - slots 0–1 finished both stages before the cut: refined values
//     with estimates and the ciCovered self-check;
//   - slot 2 was cut mid-refinement: its estimate stands as a sound
//     answer — no per-slot error, no ciCovered claim (the check never
//     ran), and on the stream no exact frame overwrites it;
//   - slot 3 (theorem) never started: a per-slot deadline error.
func TestApproxDeadlineMidRefinement(t *testing.T) {
	query.SetApproxRefineGate(func(ctx context.Context, sys, idx int) {
		if idx == 2 {
			<-ctx.Done()
		}
	})
	defer query.SetApproxRefineGate(nil)
	ts := newTestServer(t, WithRequestTimeout(500*time.Millisecond))

	body := approxStreamBody(t, `{"samples": 64, "seed": 5}`)
	resp, data := postEval(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, data)
	}
	goldenCompare(t, "approx-deadline-eval", string(data))
	var er EvalResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Status != string(query.StreamDeadline) {
		t.Fatalf("status %q, want deadline", er.Status)
	}
	docs := er.Results[0].Results
	for i, doc := range docs[:3] {
		if doc.Error != "" {
			t.Errorf("slot %d: error %q, want the sound estimate", i, doc.Error)
		}
		if doc.Estimate == nil {
			t.Errorf("slot %d: estimate missing from the 504 body", i)
		}
	}
	for _, i := range []int{0, 1} {
		if !docs[i].Flags[query.FlagCICovered] {
			t.Errorf("slot %d refined before the cut: self-check flag missing", i)
		}
	}
	if _, ok := docs[2].Flags[query.FlagCICovered]; ok {
		t.Error("cut slot claims a self-check that never ran")
	}
	if docs[3].Error == "" {
		t.Error("never-started theorem slot should carry the deadline error")
	}

	sresp, sdata := postStream(t, ts, body)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", sresp.StatusCode, sdata)
	}
	goldenCompare(t, "approx-deadline-stream", sdata)
	stream := parseStream(t, sdata)
	if stream.terminal.Status != string(query.StreamDeadline) {
		t.Fatalf("terminal = %+v, want deadline", stream.terminal)
	}
	var cutStages []string
	for _, f := range stream.results {
		if f.Index == 2 {
			cutStages = append(cutStages, f.Stage)
		}
	}
	if len(cutStages) != 1 || cutStages[0] != "approx" {
		t.Fatalf("cut slot emitted stages %v, want exactly [approx]", cutStages)
	}
}

// TestApproxBadRequests: spec defects are request-level 400s at decode,
// before any engine work.
func TestApproxBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for name, approx := range map[string]string{
		"no budget":     `{}`,
		"bad eps":       `{"eps": "3/2"}`,
		"unparsable":    `{"eps": "not-a-rat"}`,
		"bad delta":     `{"samples": 10, "delta": "2"}`,
		"negative":      `{"samples": -1}`,
		"over the cap":  `{"samples": 99999999}`,
		"unknown field": `{"nope": 1}`,
	} {
		resp, data := postEval(t, ts, approxStreamBody(t, approx))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
	}
}

// TestApproxSpecNormalizedAtDecode: the service hands the evaluation
// the spec it normalized at decode, so an eps-derived request derives
// its budget and its ln(2/δ) bound once: the decoded spec already
// carries the eps-derived budget and the default seed, and normalizing
// it again is the identity.
func TestApproxSpecNormalizedAtDecode(t *testing.T) {
	spec, err := (&ApproxRequest{Eps: "1/10", Delta: "1/100"}).approxSpec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := montecarlo.SampleSize(ratutil.R(1, 10), ratutil.R(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Samples != want || spec.Seed != 1 {
		t.Fatalf("decoded spec: samples %d (want %d), seed %d (want 1)", spec.Samples, want, spec.Seed)
	}
	again, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, *spec) || again.Delta != spec.Delta {
		t.Errorf("re-normalizing the decoded spec changed it: %+v, was %+v", again, *spec)
	}
}

// TestApproxModelMemoized: the orphaned-sampler seam is closed — the
// sampling model for a cached engine is built once and shared (same
// pointer) across requests, and an uncached key reports false instead
// of building.
func TestApproxModelMemoized(t *testing.T) {
	srv := New(nil)
	e, key, err := srv.engineFor("nsquad(2)")
	if err != nil {
		t.Fatal(err)
	}
	m1, ok := srv.Cache().ModelFor(key)
	if !ok || m1 == nil {
		t.Fatalf("ModelFor(%q) = (%v, %v), want a model", key, m1, ok)
	}
	m2, _ := srv.Cache().ModelFor(key)
	if m1 != m2 {
		t.Error("model rebuilt instead of memoized")
	}
	if m1.System() != e.System() {
		t.Error("model built over a different system than the cached engine")
	}
	if _, ok := srv.Cache().ModelFor("no-such-key"); ok {
		t.Error("ModelFor invented a model for an uncached key")
	}
}
