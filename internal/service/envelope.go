// The envelope endpoints: adversary spaces over the wire. POST
// /v1/envelope evaluates ONE query's [min, max] envelope across every
// assignment of a space-valued scenario spec ("sweep(nsquad,
// loss=0.0..0.5/0.1)"), and /v1/envelope/stream answers the same
// request as NDJSON — one frame per assignment the moment it finishes,
// each carrying the running envelope, so clients watch the bounds
// tighten progressively:
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
// streamed answers are the same fold by construction (both consume
// query.EnvelopeStream), and the final envelope is order-independent
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
// never reaches are never built; a genuine build failure mid-stream
// ends the sweep with the terminal "error" frame carrying its HTTP
// code (a real status line while nothing has flushed). Per-assignment
// evaluation failures travel inside their slots, as always.
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

// failEnvelope reports a request-level failure on the envelope stream
// in whichever shape is still expressible: a plain JSON error with its
// own status line while nothing has flushed, the terminal "error"
// status frame (carrying the HTTP code) once streaming has begun.
func (sw *streamWriter) failEnvelope(status int, err error) {
	if !sw.started {
		writeError(sw.w, status, err)
		return
	}
	_ = sw.frame(EnvelopeStatusFrame{Frame: frameStatus, Status: streamStatusError, Code: status, Error: err.Error()})
}

// envelopePlan is one vetted envelope request, shared by the buffered
// and streaming handlers.
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return envelopePlan{}, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return envelopePlan{}, false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest,
			errors.New("malformed request body: trailing content after the JSON document"))
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

// handleEnvelope serves POST /v1/envelope: the buffered sweep. A
// deadline mid-sweep is not discarded — the 504 body carries every
// finished assignment plus the partial envelope over exactly those,
// labeled with the visited count.
func (s *Server) handleEnvelope(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s not allowed; use POST", r.Method))
		return
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	plan, ok := s.decodeEnvelopeRequest(w, r)
	if !ok {
		return
	}
	states, eq := s.envelopeSources(plan)
	out, err := query.EvalEnvelope(eq,
		query.WithParallelism(plan.parallel), query.WithContext(ctx))
	if err != nil {
		// Validation failures are caught at decode; anything else here is
		// a server defect.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.sweepSources(ctx, states); err != nil {
		// A genuine build failure stays a request-level error with a real
		// status line, exactly as the retired engine barrier reported it.
		writeError(w, statusOfEvalErr(err), err)
		return
	}
	resp := EnvelopeResponse{
		Space:       plan.space,
		Canonical:   plan.canonical,
		Query:       plan.inner.String(),
		Envelope:    query.RangeDocOf(*out.Result.Envelope),
		Assignments: make([]AssignmentResult, len(plan.targets)),
	}
	for i := range plan.targets {
		resp.Assignments[i] = AssignmentResult{
			Assignment: plan.names[i],
			Spec:       plan.targets[i].key,
			Result:     query.DocOf(out.Slots[i]),
		}
	}
	if cause := context.Cause(ctx); cause != nil {
		resp.Status = string(streamStatusOf(cause))
		resp.Error = evalErrMessage(cause, s.timeout).Error()
		writeJSON(w, statusOfEvalErr(cause), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEnvelopeStream serves POST /v1/envelope/stream: the NDJSON
// sweep. Engines are lazy sources over the shared cache, chained
// through the request's seed so cold assignments share structural memo
// tables: the first assignment streams the moment its own engine is up,
// with later builds overlapping earlier evaluations. A genuine build
// failure before the first frame keeps a real status line; after it,
// the failure travels as the terminal "error" frame with its HTTP code.
func (s *Server) handleEnvelopeStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s not allowed; use POST", r.Method))
		return
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	plan, ok := s.decodeEnvelopeRequest(w, r)
	if !ok {
		return
	}
	states, eq := s.envelopeSources(plan)
	frames, err := query.EnvelopeStream(eq,
		query.WithParallelism(plan.parallel), query.WithContext(ctx))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sw := newStreamWriter(w)
	for f := range frames {
		if f.Terminal() {
			if err := s.sweepSources(ctx, states); err != nil {
				// Defensive: genuine failures surface on their own frames
				// below before the terminal arrives.
				sw.failEnvelope(statusOfEvalErr(err), err)
				return
			}
			terminal := EnvelopeStatusFrame{
				Frame:    frameStatus,
				Status:   string(f.Status),
				Envelope: query.RangeDocOf(f.Envelope),
			}
			if f.Err != nil {
				terminal.Error = evalErrMessage(f.Err, s.timeout).Error()
			}
			_ = sw.frame(terminal)
			return
		}
		if err := states[f.Index].genuineBuildErr(ctx); err != nil {
			sw.failEnvelope(statusOfEvalErr(err), err)
			return
		}
		err := sw.frame(EnvelopeResultFrame{
			Frame:      frameResult,
			Index:      f.Index,
			Assignment: f.Assignment,
			Spec:       f.Spec,
			Result:     query.DocOf(f.Result),
			Envelope:   query.RangeDocOf(f.Envelope),
		})
		if err != nil {
			// The client is gone; the buffered envelope stream drains
			// itself, so just stop writing.
			return
		}
	}
}
