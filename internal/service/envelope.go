// The envelope endpoints: adversary spaces over the wire. One pipeline
// (envelopeFrames) evaluates ONE query's [min, max] envelope across
// every assignment of a space-valued scenario spec ("sweep(nsquad,
// loss=0.0..0.5/0.1)") and yields one frame per assignment the moment
// it finishes, each carrying the running envelope, then one terminal
// frame with the final envelope. POST /v1/envelope/stream writes the
// frames as NDJSON, so clients watch the bounds tighten progressively;
// POST /v1/envelope folds them into one EnvelopeResponse:
//
//	{"frame":"result","index":1,"assignment":"loss=1/10",
//	 "spec":"nsquad(n=3,loss=1/10,improved=false)","result":{...},
//	 "envelope":{"min":"99/100","max":"1",...,"visited":2,"total":6}}
//	{"frame":"status","status":"complete","envelope":{...final...}}
//
// Every assignment resolves through the registry to a canonical system
// spec and is vetted exactly like a plain /v1/eval target (value caps,
// ServeGuard), and its engine comes from the same shared
// EngineCache/singleflight machinery — a sweep whose instances overlap
// earlier traffic reuses those engines outright. The buffered and
// streamed answers are the same frames by construction (one pipeline
// over query.EnvelopeStream), and the final envelope is order-independent
// (witness ties break toward the lowest assignment index), so buffered,
// streamed and in-process serial envelopes are byte-identical on the
// wire — the determinism tests pin all three.
//
// Deadline semantics extend PR 4's prefix-preservation contract: a
// request that outruns its budget answers 504 (buffered) or a
// "deadline" terminal frame (streamed) whose envelope is the exact fold
// of the assignments that finished, labeled with the visited count —
// a sound partial envelope, never a discarded sweep. Engines are lazy
// sources chained through a per-request seed (structural memo tables
// shared across same-shape assignments), so the first assignment
// streams as soon as its own engine is up and assignments the deadline
// never reaches are never built. A genuine build failure ends the
// stream at its frame with the terminal "error" frame carrying its HTTP
// code (a real status line while nothing has flushed); the buffered
// sweep runs out and answers the first failing assignment's errorDoc.
// Per-assignment evaluation failures travel inside their slots, as
// always.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"pak/internal/core"
	"pak/internal/query"
)

// EnvelopeRequest is the /v1/envelope request body.
type EnvelopeRequest struct {
	// Space is the space-valued scenario spec, e.g.
	// "sweep(nsquad,loss=0.0..0.5/0.1)". Fixed parameters and defaults
	// fill the rest, exactly as in a plain spec.
	Space string `json:"space"`
	// Query is ONE query document (the element schema of
	// pak.ParseQueryBatch) evaluated under every assignment. It must
	// yield a single headline value (constraint, expectation,
	// threshold, theorem, local belief, timeline).
	Query json.RawMessage `json:"query"`
	// Parallelism bounds the worker pool (0 = server default; clamped).
	Parallelism int `json:"parallelism,omitempty"`
}

// AssignmentResult is one assignment's slice of an envelope response.
type AssignmentResult struct {
	// Assignment renders the adversary assignment; Spec is the
	// canonical system spec it resolves to (the engine-cache key).
	Assignment string `json:"assignment"`
	Spec       string `json:"spec"`
	// Result is the inner query's result under this assignment — the
	// exact ResultDoc a /v1/eval of Spec would return for the query.
	Result query.ResultDoc `json:"result"`
}

// EnvelopeResponse is the /v1/envelope response body.
type EnvelopeResponse struct {
	// Space echoes the requested spec; Canonical is its fully resolved
	// space form (declared parameter order, defaults filled).
	Space     string `json:"space"`
	Canonical string `json:"canonical"`
	// Query describes the evaluated inner query.
	Query string `json:"query"`
	// Envelope is the final (possibly partial) envelope.
	Envelope query.RangeDoc `json:"envelope"`
	// Assignments holds the per-assignment results in space order.
	Assignments []AssignmentResult `json:"assignments"`
	// Status/Error mark a deadline-cut or cancelled sweep, exactly like
	// EvalResponse: the envelope then covers the visited assignments
	// only (Envelope.Visited < Envelope.Total).
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// EnvelopeResultFrame is one result line of a /v1/envelope/stream
// response.
type EnvelopeResultFrame struct {
	// Frame is always "result".
	Frame string `json:"frame"`
	// Index is the assignment's position in the space's enumeration.
	Index int `json:"index"`
	// Assignment and Spec identify the slot (see AssignmentResult).
	Assignment string `json:"assignment"`
	Spec       string `json:"spec"`
	// Result is the slot's wire result — identical to the buffered
	// response's entry at Assignments[Index].
	Result query.ResultDoc `json:"result"`
	// Envelope is the running envelope after folding this frame.
	Envelope query.RangeDoc `json:"envelope"`
}

// EnvelopeStatusFrame is the terminal line of every /v1/envelope/stream
// response.
type EnvelopeStatusFrame struct {
	// Frame is always "status".
	Frame string `json:"frame"`
	// Status is "complete", "deadline", "cancelled" — or "error" for a
	// request-level failure once streaming has begun (engines build
	// lazily mid-sweep, so a genuine build failure can postdate the
	// first frame).
	Status string `json:"status"`
	// Code is the HTTP status a mid-stream failure would have carried
	// (set only on "error" frames).
	Code int `json:"code,omitempty"`
	// Envelope is the final envelope — identical to the buffered
	// response's, partial (Visited < Total) under a deadline; zero on
	// "error" frames.
	Envelope query.RangeDoc `json:"envelope"`
	// Error carries the timeout/cancellation/failure message (empty on
	// "complete").
	Error string `json:"error,omitempty"`
}

// envelopePlan is one vetted envelope request, the envelope pipeline's
// input under either transport.
type envelopePlan struct {
	space     string
	canonical string
	inner     query.Query
	targets   []resolved // one per assignment, space order
	names     []string   // assignment renderings, space order
	parallel  int
}

// decodeEnvelopeRequest parses, validates and resolves an envelope
// request without building any engine. On failure it writes the 4xx
// itself and reports false — nothing has streamed at this point, so
// request-level errors always get a proper status line.
func (s *Server) decodeEnvelopeRequest(w http.ResponseWriter, r *http.Request) (envelopePlan, bool) {
	var req EnvelopeRequest
	if !s.decodeBody(w, r, &req) {
		return envelopePlan{}, false
	}
	if req.Space == "" {
		writeError(w, http.StatusBadRequest,
			errors.New(`empty request: name an adversary space in "space" (e.g. "sweep(nsquad,loss=0..1/2/1/10)")`))
		return envelopePlan{}, false
	}
	if isMissingJSON(req.Query) {
		writeError(w, http.StatusBadRequest,
			errors.New(`the envelope needs exactly one query document in "query"`))
		return envelopePlan{}, false
	}
	inner, err := query.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query document: %w", err))
		return envelopePlan{}, false
	}

	rs, err := s.reg.ResolveSpace(req.Space)
	if err != nil {
		writeError(w, statusOfEvalErr(err), err)
		return envelopePlan{}, false
	}
	insts := rs.Instances()
	if len(insts) > s.maxAssignments {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("space %s enumerates %d assignments, above the server cap of %d",
				rs.Canonical(), len(insts), s.maxAssignments))
		return envelopePlan{}, false
	}

	plan := envelopePlan{
		space:     req.Space,
		canonical: rs.Canonical(),
		inner:     inner,
		targets:   make([]resolved, len(insts)),
		names:     make([]string, len(insts)),
		parallel:  s.maxParallel,
	}
	if req.Parallelism > 0 && req.Parallelism < plan.parallel {
		plan.parallel = req.Parallelism
	}
	for i, inst := range insts {
		// Every assignment is vetted exactly like a plain eval target:
		// the generic value caps plus the scenario's own ServeGuard.
		rt, err := s.resolveTarget(inst.Canonical)
		if err != nil {
			writeError(w, statusOfEvalErr(err), fmt.Errorf("assignment %v: %w", inst.Assignment, err))
			return envelopePlan{}, false
		}
		plan.targets[i] = rt
		plan.names[i] = inst.Assignment.String()
	}
	return plan, true
}

// envelopeSources compiles the plan into lazy envelope items: one
// engine source per assignment over the shared cache, chained through a
// per-request seed so cold builds share structural memo tables with the
// sweep's first-built engine where provably sound (core.NewSeeded). An
// assignment whose build the deadline cuts reports as not-visited — the
// same partial-envelope contract the eval path honours — and one the
// deadline never reaches is not built at all.
func (s *Server) envelopeSources(plan envelopePlan) ([]*sourceState, query.EnvelopeQuery) {
	seed := &atomic.Pointer[core.Engine]{}
	states := make([]*sourceState, len(plan.targets))
	items := make([]query.EnvelopeItem, len(plan.targets))
	for i := range plan.targets {
		states[i] = &sourceState{target: plan.targets[i]}
		items[i] = query.EnvelopeItem{
			Assignment: plan.names[i],
			Spec:       plan.targets[i].key,
			Source:     s.sourceFor(states[i], false, seed),
		}
	}
	return states, query.EnvelopeQuery{Inner: plan.inner, Items: items}
}

// envelopeFrames is the /v1/envelope pipeline: one EnvelopeStream over
// lazy, seed-chained engine sources, each assignment's frame put as it
// arrives with the running envelope. It returns the request's one
// terminal status and the final envelope (zero on "error"). A put error
// (the client is gone) ends the pipeline at once with a zero status.
// failFast ends it at the first frame of an assignment whose build
// genuinely failed; otherwise that failure is the first one in
// assignment order, found once the sweep has run out (sweepSources).
func (s *Server) envelopeFrames(ctx context.Context, plan envelopePlan, failFast bool,
	put func(EnvelopeResultFrame) error) (StreamStatusFrame, query.RangeDoc) {
	states, eq := s.envelopeSources(plan)
	frames, err := query.EnvelopeStream(eq,
		query.WithParallelism(plan.parallel), query.WithContext(ctx))
	if err != nil {
		// Validation failures are caught at decode; anything else here is
		// a server defect.
		t := failed(err)
		t.Code = http.StatusInternalServerError
		return t, query.RangeDoc{}
	}
	var end query.EnvelopeFrame
	for f := range frames {
		if f.Terminal() {
			end = f
			continue
		}
		if failFast {
			if err := states[f.Index].genuineBuildErr(ctx); err != nil {
				return failed(err), query.RangeDoc{}
			}
		}
		err := put(EnvelopeResultFrame{
			Frame:      frameResult,
			Index:      f.Index,
			Assignment: f.Assignment,
			Spec:       f.Spec,
			Result:     query.DocOf(f.Result),
			Envelope:   query.RangeDocOf(f.Envelope),
		})
		if err != nil {
			// The client is gone; the buffered envelope stream drains
			// itself, so just stop.
			return StreamStatusFrame{}, query.RangeDoc{}
		}
	}
	if err := s.sweepSources(ctx, states); err != nil {
		return failed(err), query.RangeDoc{}
	}
	return s.ended(end.Err), query.RangeDocOf(end.Envelope)
}

// serveEnvelopeStream is the NDJSON transport of /v1/envelope/stream:
// each assignment's frame reaches the client as the pipeline yields it.
func (s *Server) serveEnvelopeStream(ctx context.Context, w http.ResponseWriter, plan envelopePlan) {
	sw := newStreamWriter(w)
	t, env := s.envelopeFrames(ctx, plan, true, func(f EnvelopeResultFrame) error { return sw.frame(f) })
	sw.end(EnvelopeStatusFrame{Frame: t.Frame, Status: t.Status, Code: t.Code, Envelope: env, Error: t.Error}, t.Code, t.Error)
}

// serveEnvelope is the buffered transport of /v1/envelope: it folds the
// pipeline's frames into one EnvelopeResponse. A deadline mid-sweep is
// not discarded — the 504 body carries every finished assignment plus
// the partial envelope over exactly those, labeled with the visited
// count.
func (s *Server) serveEnvelope(ctx context.Context, w http.ResponseWriter, plan envelopePlan) {
	resp := EnvelopeResponse{
		Space:       plan.space,
		Canonical:   plan.canonical,
		Query:       plan.inner.String(),
		Assignments: make([]AssignmentResult, len(plan.targets)),
	}
	t, env := s.envelopeFrames(ctx, plan, false, func(f EnvelopeResultFrame) error {
		resp.Assignments[f.Index] = AssignmentResult{Assignment: f.Assignment, Spec: f.Spec, Result: f.Result}
		return nil
	})
	resp.Envelope = env
	if t.Status != string(query.StreamComplete) {
		resp.Status, resp.Error = t.Status, t.Error
	}
	answer(w, t, resp)
}
